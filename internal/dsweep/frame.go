// Package dsweep scales parameter sweeps across processes and
// machines: a coordinator owns one experiment.Sweep's grid and leases
// its cells — (algorithm, load, replication), numbered as Sweep.Run
// numbers its shards — to workers over TCP; workers simulate cells,
// stream heartbeats and mid-run snapshot checkpoints back, and return
// per-cell results. When a worker dies — connection drop, kill -9,
// heartbeat loss — the coordinator re-leases the cell, handing the
// replacement worker the latest checkpoint blob so it resumes mid-run
// instead of restarting (a fast cell, which cannot be snapshotted,
// restarts). Because every cell derives its seeds
// from its own coordinates and a resumed cell is bit-identical to a
// straight run (the PR 4 contract pinned in internal/switchsim), the
// merged table is byte-identical to a single-process Sweep.Run for any
// fleet size, join/leave order, or crash schedule — the chaos battery
// in this package proves it.
//
// DESIGN.md §15 documents the wire protocol, the lease lifecycle and
// the trust model; docs for the operator flow live in README's
// "Distributed sweeps" section.
package dsweep

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"voqsim/internal/wire"
)

// Wire format. A dsweep connection is a TCP stream of length-prefixed
// frames: a big-endian uint32 payload length followed by the payload.
// Every payload starts with the four-byte header 'D' 'S' version kind;
// multi-byte integers are big-endian, strings and blobs are
// length-prefixed, and trailing bytes after a frame's declared fields
// are a decode error so a truncated or corrupted frame can never be
// half-understood. Snapshot and result payloads carry an FNV-1a
// checksum; the codec transports it verbatim (re-encode identity holds
// even for a bad sum) and the coordinator/worker verify it
// semantically, so a tampered or corrupted payload is rejected with a
// counted error instead of killing the parse.
const (
	// Version is the protocol version in every frame header. Version 2
	// put the replication index in the lease; a mixed fleet fails at the
	// hello handshake.
	Version = 2

	// KindHello opens a session: worker -> coordinator, carrying the
	// worker's display name.
	KindHello = 1
	// KindWelcome answers a hello: coordinator -> worker, carrying the
	// sweep spec JSON plus the heartbeat interval and checkpoint
	// cadence the worker must honour.
	KindWelcome = 2
	// KindClaim asks for work: worker -> coordinator, empty body. The
	// coordinator answers with exactly one of Lease, Wait or Done.
	KindClaim = 3
	// KindLease grants one cell: coordinator -> worker, carrying the
	// lease id, the cell's coordinates (algorithm, load, replication)
	// and the latest checkpoint blob of a previously interrupted run
	// (empty = fresh).
	KindLease = 4
	// KindWait defers a claim: coordinator -> worker. Every point is
	// currently leased or backing off; retry after RetryMs.
	KindWait = 5
	// KindDone ends the session: coordinator -> worker. The table is
	// complete; the worker exits cleanly.
	KindDone = 6
	// KindHeartbeat keeps a lease alive: worker -> coordinator, with
	// the current simulation slot as progress.
	KindHeartbeat = 7
	// KindCheckpoint streams a mid-point snapshot: worker ->
	// coordinator. Implicitly also a heartbeat.
	KindCheckpoint = 8
	// KindResult returns a finished point: worker -> coordinator, the
	// point JSON plus its checksum.
	KindResult = 9
	// KindError reports a protocol rejection: coordinator -> worker,
	// sent before the coordinator closes the connection.
	KindError = 10

	// MaxBlob bounds snapshot blobs and result payloads; generous next
	// to any real snapshot (an N=1024 point is ~tens of MB at most).
	MaxBlob = 64 << 20
	// MaxName bounds the worker name in a hello frame.
	MaxName = 128
	// MaxMsg bounds the message in an error frame.
	MaxMsg = 1024
	// MaxGrid bounds the grid coordinates a lease may carry.
	MaxGrid = 1 << 20
	// maxFrame bounds a whole frame on the stream, covering the
	// largest legal payload plus headers.
	maxFrame = MaxBlob + 4096
)

// Frame is one parsed protocol frame. Kind selects which other fields
// are meaningful; the codec writes and reads only the fields of the
// frame's kind, so an accepted frame re-encodes to the same bytes.
type Frame struct {
	Kind byte

	Name string // Hello: worker display name

	Spec            []byte // Welcome: sweep spec JSON
	HeartbeatMs     uint32 // Welcome: heartbeat interval, milliseconds
	CheckpointEvery int64  // Welcome: checkpoint cadence, slots (0 = off)

	LeaseID uint64 // Lease, Heartbeat, Checkpoint, Result
	AI, LI  int    // Lease: grid coordinates (algorithm, load index)
	Rep     int    // Lease: replication index

	Slot int64 // Heartbeat, Checkpoint: current simulation slot

	Sum  uint64 // Lease, Checkpoint, Result: FNV-1a 64 of Blob
	Blob []byte // Lease, Checkpoint: snapshot; Result: point JSON

	RetryMs uint32 // Wait: suggested delay before the next claim

	Msg string // Error: human-readable rejection reason
}

// Checksum is the FNV-1a 64 hash guarding blob payloads in transit.
// It is an integrity check against corruption and casual tampering,
// not an authentication: the protocol trusts workers that compute
// valid checksums (see the trust model in DESIGN.md §15).
func Checksum(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// AppendFrame encodes f onto dst and returns the extended slice. It
// panics on caller errors the sender controls — an unknown kind or an
// oversized field — because those are bugs, not input.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, 'D', 'S', Version, f.Kind)
	switch f.Kind {
	case KindHello:
		if len(f.Name) == 0 || len(f.Name) > MaxName {
			panic(fmt.Sprintf("dsweep: hello name is %d bytes", len(f.Name)))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
	case KindWelcome:
		if f.HeartbeatMs == 0 {
			panic("dsweep: welcome without a heartbeat interval")
		}
		if f.CheckpointEvery < 0 {
			panic("dsweep: welcome with a negative checkpoint cadence")
		}
		if len(f.Spec) == 0 || len(f.Spec) > MaxBlob {
			panic(fmt.Sprintf("dsweep: welcome spec is %d bytes", len(f.Spec)))
		}
		dst = binary.BigEndian.AppendUint32(dst, f.HeartbeatMs)
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.CheckpointEvery))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Spec)))
		dst = append(dst, f.Spec...)
	case KindClaim, KindDone:
		// empty body
	case KindLease:
		if f.AI < 0 || f.AI > MaxGrid || f.LI < 0 || f.LI > MaxGrid || f.Rep < 0 || f.Rep > MaxGrid {
			panic(fmt.Sprintf("dsweep: lease coordinates (%d,%d,%d) out of range", f.AI, f.LI, f.Rep))
		}
		if len(f.Blob) > MaxBlob {
			panic(fmt.Sprintf("dsweep: lease blob is %d bytes", len(f.Blob)))
		}
		dst = binary.BigEndian.AppendUint64(dst, f.LeaseID)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.AI))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.LI))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Rep))
		dst = binary.BigEndian.AppendUint64(dst, f.Sum)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Blob)))
		dst = append(dst, f.Blob...)
	case KindWait:
		if f.RetryMs == 0 {
			panic("dsweep: wait without a retry delay")
		}
		dst = binary.BigEndian.AppendUint32(dst, f.RetryMs)
	case KindHeartbeat:
		if f.Slot < 0 {
			panic(fmt.Sprintf("dsweep: heartbeat slot %d", f.Slot))
		}
		dst = binary.BigEndian.AppendUint64(dst, f.LeaseID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Slot))
	case KindCheckpoint:
		if f.Slot < 0 {
			panic(fmt.Sprintf("dsweep: checkpoint slot %d", f.Slot))
		}
		if len(f.Blob) == 0 || len(f.Blob) > MaxBlob {
			panic(fmt.Sprintf("dsweep: checkpoint blob is %d bytes", len(f.Blob)))
		}
		dst = binary.BigEndian.AppendUint64(dst, f.LeaseID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Slot))
		dst = binary.BigEndian.AppendUint64(dst, f.Sum)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Blob)))
		dst = append(dst, f.Blob...)
	case KindResult:
		if len(f.Blob) == 0 || len(f.Blob) > MaxBlob {
			panic(fmt.Sprintf("dsweep: result payload is %d bytes", len(f.Blob)))
		}
		dst = binary.BigEndian.AppendUint64(dst, f.LeaseID)
		dst = binary.BigEndian.AppendUint64(dst, f.Sum)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Blob)))
		dst = append(dst, f.Blob...)
	case KindError:
		if len(f.Msg) == 0 || len(f.Msg) > MaxMsg {
			panic(fmt.Sprintf("dsweep: error message is %d bytes", len(f.Msg)))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Msg)))
		dst = append(dst, f.Msg...)
	default:
		panic(fmt.Sprintf("dsweep: unknown frame kind %d", f.Kind))
	}
	return dst
}

// ParseFrame decodes one frame payload. Hostile input errors, never
// panics (DESIGN.md §10). The returned views (Spec, Blob) alias b.
func ParseFrame(b []byte) (Frame, error) {
	r := wire.NewBigEndian(b)
	r.Header("DS", 1, Version)
	f := Frame{Kind: r.U8()}
	switch f.Kind {
	case KindHello:
		f.Name = string(r.Sized(int(r.U16()), 1, MaxName))
	case KindWelcome:
		f.HeartbeatMs, f.CheckpointEvery = r.U32(), r.NonNeg()
		f.Spec = r.Sized(int(r.U32()), 1, MaxBlob)
		if f.HeartbeatMs == 0 {
			r.Failf("welcome with zero heartbeat interval")
		}
	case KindClaim, KindDone:
		// empty body
	case KindLease:
		f.LeaseID = r.U64()
		ai, li, rep := r.U32(), r.U32(), r.U32()
		f.Sum = r.U64()
		f.Blob = r.Sized(int(r.U32()), 0, MaxBlob)
		if max(ai, li, rep) > MaxGrid {
			r.Failf("lease coordinates (%d,%d,%d) out of range", ai, li, rep)
		}
		f.AI, f.LI, f.Rep = int(ai), int(li), int(rep)
	case KindWait:
		if f.RetryMs = r.U32(); f.RetryMs == 0 {
			r.Failf("wait with zero retry delay")
		}
	case KindHeartbeat:
		f.LeaseID, f.Slot = r.U64(), r.NonNeg()
	case KindCheckpoint:
		f.LeaseID, f.Slot, f.Sum = r.U64(), r.NonNeg(), r.U64()
		f.Blob = r.Sized(int(r.U32()), 1, MaxBlob)
	case KindResult:
		f.LeaseID, f.Sum = r.U64(), r.U64()
		f.Blob = r.Sized(int(r.U32()), 1, MaxBlob)
	case KindError:
		f.Msg = string(r.Sized(int(r.U16()), 1, MaxMsg))
	default:
		r.Failf("unknown frame kind %d", f.Kind)
	}
	if err := r.Done(); err != nil {
		return Frame{}, fmt.Errorf("dsweep: %w", err)
	}
	return f, nil
}

// WriteFrame encodes f with its length prefix onto w in one Write
// call, so concurrent writers serialized by a mutex never interleave
// partial frames.
func WriteFrame(w io.Writer, f Frame) error {
	payload := AppendFrame(make([]byte, 4, 64), f)
	binary.BigEndian.PutUint32(payload, uint32(len(payload)-4))
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r. The returned
// frame's views alias a fresh buffer, so the caller may retain them
// until it next needs them. The buffer grows as body bytes arrive, so
// a peer that declares a large frame and sends nothing costs nothing.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	hr := wire.NewBigEndian(hdr[:])
	n := int(hr.U32())
	if n < 4 || n > maxFrame {
		return Frame{}, fmt.Errorf("dsweep: frame length %d out of range", n)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		return Frame{}, fmt.Errorf("dsweep: frame body: %w", err)
	}
	return ParseFrame(buf.Bytes())
}
