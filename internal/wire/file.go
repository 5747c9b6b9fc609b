package wire

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// WriteFile commits a whole file at path: write fills a temp file named
// .tmp-<base>-* beside it through one buffered writer, which is flushed,
// given mode 0644, fsynced, closed and renamed over path, and then the
// directory is fsynced. A kill or a host crash at any point leaves the old
// file or the complete new one. On error the temp file is removed and path
// is untouched.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return Rename(f.Name(), path)
}

// Rename moves old to new and fsyncs new's directory, so the rename
// survives a host crash; it commits a directory of WriteFile'd files.
func Rename(old, new string) error {
	if err := os.Rename(old, new); err != nil {
		return err
	}
	return syncDir(filepath.Dir(new))
}

// syncDir makes the entries of dir durable. Close is deferred: the handle
// is read-only, so once Sync has answered its Close has nothing to report.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
