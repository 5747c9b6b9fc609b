package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var errBang = errors.New("line starts with !")

// scan runs ScanLines with a decoder that calls a line starting with '!'
// malformed, returning the lines it was handed.
func scan(data []byte) (lines []string, err error) {
	err = ScanLines(bytes.NewReader(data), "idx", func(line []byte) error {
		lines = append(lines, string(line))
		if line[0] == '!' {
			return errBang
		}
		return nil
	})
	return lines, err
}

func TestScanLines(t *testing.T) {
	cases := []struct {
		name, in string
		want     []string
		badLine  int // 0 = no error
	}{
		{"empty", "", nil, 0},
		{"blank lines skipped", "a\n\n  \nb\n", []string{"a", "b"}, 0},
		{"no final newline", "a\nb", []string{"a", "b"}, 0},
		{"crlf", "a\r\n\r\nb\r\n", []string{"a", "b"}, 0},
		{"torn tail ignored", "a\nb\n!c", []string{"a", "b", "!c"}, 0},
		{"torn tail then blanks", "a\n!c\n\n", []string{"a", "!c"}, 0},
		{"torn middle is corruption", "a\n\n!c\nb\nd\n", []string{"a", "!c"}, 3},
	}
	for _, tc := range cases {
		got, err := scan([]byte(tc.in))
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("%s: lines %q, want %q", tc.name, got, tc.want)
		}
		var le *LineError
		switch {
		case tc.badLine == 0 && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.badLine != 0 && (!errors.As(err, &le) || le.Name != "idx" || le.Line != tc.badLine || !errors.Is(err, errBang)):
			t.Errorf("%s: err = %v, want a LineError at idx line %d wrapping the decoder's", tc.name, err, tc.badLine)
		}
	}
}

func TestOpenAppend(t *testing.T) {
	long := strings.Repeat("x", 150<<10) // a torn tail longer than one backward chunk
	cases := []struct{ name, before, after string }{
		{"whole lines kept", "a\nb\n", "a\nb\n"},
		{"partial line cut", "a\nb\n{\"c\":", "a\nb\n"},
		{"long partial line cut", "a\n" + long, "a\n"},
		{"no newline at all", long, ""},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "made", "for", "it", "log.jsonl")
		if tc.before != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(tc.before), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f, err := OpenAppend(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := f.WriteString("next\n"); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.after+"next\n" {
			t.Errorf("%s: file holds %d bytes %.40q, want %q + the appended line", tc.name, len(got), got, tc.after)
		}
	}
}

// FuzzScanLines: against a split-and-trim reference, ScanLines hands over
// exactly the non-blank lines up to the first malformed one that is not the
// last, reports that one by number, and never panics.
func FuzzScanLines(f *testing.F) {
	f.Add(append(bytes.Repeat([]byte("x"), 1<<20), "\n{}\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []string
		badLine, tornMiddle := 0, false
		for i, raw := range bytes.Split(data, []byte("\n")) {
			line := bytes.TrimSpace(raw)
			if len(line) == 0 {
				continue
			}
			if badLine != 0 {
				tornMiddle = true
				break
			}
			want = append(want, string(line))
			if line[0] == '!' {
				badLine = i + 1
			}
		}
		got, err := scan(data)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("handed %d lines, reference says %d", len(got), len(want))
		}
		var le *LineError
		switch {
		case !tornMiddle && err != nil:
			t.Fatalf("unexpected error %v", err)
		case tornMiddle && (!errors.As(err, &le) || le.Line != badLine):
			t.Fatalf("err = %v, want a LineError at line %d", err, badLine)
		}
	})
}
