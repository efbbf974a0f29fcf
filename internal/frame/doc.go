// Package frame is the one byte framing the repository uses, on disk
// (internal/wal segments) and on the wire (internal/cluster connections):
// a fixed header of uint32 payload length plus uint32 CRC-32C of the
// payload, both little-endian, followed by the payload.
//
// The package knows nothing about what a payload means. Callers pass their
// own size cap (a length field above it is a corrupt header, not a frame
// to allocate for; Read grows its buffer only as the payload arrives, so a
// header claiming the cap costs nothing until the bytes come), marshal their payload type themselves, and map
// ErrCorrupt to the error their contract names: wal.ErrTorn is crash
// residue to truncate, cluster.ErrBadFrame a protocol violation that kills
// the connection. Decode and Read never panic on any input.
package frame
