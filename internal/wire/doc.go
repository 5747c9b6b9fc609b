// Package wire is the one place bytes from a socket, a pipe or an
// append-only file become records, and the one place a whole file is
// committed to disk, and its fixed layouts are the one codec for what those
// bytes say. Four contracts, stdlib only:
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
//
// Whole files (WriteFile / Rename, under the checkpoint and the obs dumps):
// a file is written to a fsynced .tmp- sibling and renamed over its target
// in a fsynced directory, so a kill or a host crash never leaves it torn.
//
// Fixed layouts (the Append* helpers and Reader, under the serve and dist
// payloads, the checkpoint files and ttp.model): big-endian integers, floats
// as IEEE-754 bits, counts as u32, strings behind a u16 length. Each
// persisted type owns its layout (AppendTo, and Decode on a *Reader), whole
// files and blobs open with a version byte, and Reader.Count refuses a count
// the bytes left cannot hold before anything is allocated for it. A Reader's
// first failure poisons it: a short read, a *CountError, a *VersionError, a
// *TrailingError from Done, or the decoder's own.
package wire
