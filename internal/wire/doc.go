// Package wire is the one place bytes from a socket, a pipe or an
// append-only file become records. Two contracts, stdlib only:
//
// Frames (ReadFrame / WriteFrame, under the serve and dist protocols): a
// big-endian u32 length covering the type byte, the type byte, the payload.
// The length is checked against the caller's max before anything is
// allocated and is then only a claim — memory grows with the bytes that
// arrive — and io.EOF is returned only on a frame boundary.
//
// Line files (ScanLines / OpenAppend, under the results index and the obs
// event log): one record per line, each committed by its writer in a
// single write. A malformed last line is a torn tail — ignored by readers,
// truncated by the next OpenAppend — and a malformed line followed by
// another is corruption, reported with file and line.
package wire
