package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// maxLine bounds one record line; a results record carries a whole spec and
// every day's stats, so the bound is generous.
const maxLine = 1 << 28

// A LineError reports a malformed line that is not the file's last: the
// file is corrupt, not merely torn by a kill mid-append.
type LineError struct {
	Name string
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("%s line %d: %v", e.Name, e.Line, e.Err) }
func (e *LineError) Unwrap() error { return e.Err }

// ScanLines hands fn every non-blank line of r, trimmed of surrounding
// whitespace and valid only during the call. An error from fn marks the
// line malformed: as the last line it is a torn tail and ignored, followed
// by another line it is returned as a *LineError naming name and the line.
func ScanLines(r io.Reader, name string, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	var pending error
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			return pending
		}
		if err := fn(line); err != nil {
			pending = &LineError{Name: name, Line: lineNo, Err: err}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", name, err)
	}
	return nil
}

// OpenAppend opens path for appending whole lines, creating it and its
// parent directories as needed, after truncating a trailing partial line
// (anything past the last newline) left by a kill mid-append. The
// directory is fsynced, so a file it created survives a host crash.
func OpenAppend(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	if err := truncateTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("repairing torn tail of %s: %w", path, err)
	}
	return f, nil
}

// truncateTornTail scans backwards in chunks for the last newline and cuts
// the file there (to empty when it holds no newline at all).
func truncateTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	buf := make([]byte, min(end, 64<<10))
	for end > 0 {
		start := max(end-int64(len(buf)), 0)
		chunk := buf[:end-start]
		if _, err := f.ReadAt(chunk, start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			end = start + int64(i) + 1
			break
		}
		end = start
	}
	if end == st.Size() {
		return nil
	}
	return f.Truncate(end)
}
