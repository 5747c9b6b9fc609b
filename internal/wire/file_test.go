package wire

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tmpEntries lists the .tmp- entries WriteFile may have left in dir.
func tmpEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestWriteFileReplaces: a successful WriteFile replaces the target's
// content, gives it mode 0644, and leaves no temp file behind.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	for _, body := range []string{"first", "second, longer"} {
		err := WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("file holds %q, want %q", got, body)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", st.Mode().Perm())
	}
	if tmps := tmpEntries(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestWriteFileFailureKeepsOld: a write that fails midway returns its error,
// leaves the previous content byte for byte, and leaves no temp file.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.json")
	old := []byte("committed\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	errMid := errors.New("encoder failed")
	err := WriteFile(path, func(w io.Writer) error {
		// More than bufio's buffer, so part of it reaches the temp file.
		if _, err := w.Write(make([]byte, 64<<10)); err != nil {
			return err
		}
		return errMid
	})
	if !errors.Is(err, errMid) {
		t.Fatalf("WriteFile returned %v, want the write's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(old) {
		t.Fatalf("failed write changed the file to %d bytes", len(got))
	}
	if tmps := tmpEntries(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestRenameCommitsDir: Rename moves a directory of written files into
// place whole.
func TestRenameCommitsDir(t *testing.T) {
	root := t.TempDir()
	tmp := filepath.Join(root, ".tmp-day_000")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(tmp, "acc.bin"), func(w io.Writer) error {
		_, err := io.WriteString(w, "acc")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	day := filepath.Join(root, "day_000")
	if err := Rename(tmp, day); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(day, "acc.bin")); err != nil || string(got) != "acc" {
		t.Fatalf("committed dir holds %q (%v)", got, err)
	}
	if tmps := tmpEntries(t, root); len(tmps) != 0 {
		t.Fatalf("temp entries left behind: %v", tmps)
	}
}
