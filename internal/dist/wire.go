package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/netlist"
)

// Shard request wire frame: the body of POST /simulate. One fixed-width
// little-endian frame, so neither side spends its CPU on a text codec
// and a worker can size-check a body before it allocates anything:
//
//	header   24 B  "GSR1" | shard u32 | attempt u32 | module u16 | lanes u16 | faults u32 | patterns u32
//	fault     8 B  lane i16 | gate i32 | pin i8 | sa1 u8
//	pattern  32 B  cc u64 | lane i16 | warp i16 | pc i32 | w0 u64 | w1 u64
//
// The faults follow the header, then the patterns. The magic carries the
// wire version: a layout change must bump it (testdata/shard_frame.golden
// pins the current one). Replies stay JSON.
const (
	frameMagic       = "GSR1"
	frameHeaderLen   = 24
	frameFaultLen    = 8
	framePatternLen  = 32
	frameContentType = "application/x-gpustl-shard"
	// maxFrameBytes bounds the body a worker will buffer: a Content-Length
	// past it is refused before any allocation. A real campaign's stream
	// is a few MB.
	maxFrameBytes = 1 << 30
)

// frameLen is the exact body length of a frame with nf faults and np
// patterns.
func frameLen(nf, np uint64) uint64 {
	return frameHeaderLen + frameFaultLen*nf + framePatternLen*np
}

// encodeShardFrame renders req as a shard frame. It fails only for
// values the fixed-width fields cannot carry.
func encodeShardFrame(req *ShardRequest) ([]byte, error) {
	u32 := func(v int) bool { return v >= 0 && uint64(v) <= math.MaxUint32 }
	if !u32(req.Shard) || !u32(req.Attempt) || !u32(len(req.Faults)) || !u32(len(req.Stream)) ||
		req.Lanes < 0 || req.Lanes > math.MaxUint16 {
		return nil, fmt.Errorf("dist: shard %d attempt %d (lanes %d, %d faults, %d patterns) does not fit the wire frame",
			req.Shard, req.Attempt, req.Lanes, len(req.Faults), len(req.Stream))
	}
	b := make([]byte, frameLen(uint64(len(req.Faults)), uint64(len(req.Stream))))
	le := binary.LittleEndian
	copy(b, frameMagic)
	le.PutUint32(b[4:], uint32(req.Shard))
	le.PutUint32(b[8:], uint32(req.Attempt))
	le.PutUint16(b[12:], uint16(req.Module))
	le.PutUint16(b[14:], uint16(req.Lanes))
	le.PutUint32(b[16:], uint32(len(req.Faults)))
	le.PutUint32(b[20:], uint32(len(req.Stream)))
	p := b[frameHeaderLen:]
	for _, f := range req.Faults {
		le.PutUint16(p, uint16(f.Lane))
		le.PutUint32(p[2:], uint32(f.Site.Gate))
		p[6] = byte(f.Site.Pin)
		if f.Site.SA1 {
			p[7] = 1
		}
		p = p[frameFaultLen:]
	}
	for _, tp := range req.Stream {
		le.PutUint64(p, tp.CC)
		le.PutUint16(p[8:], uint16(tp.Lane))
		le.PutUint16(p[10:], uint16(tp.Warp))
		le.PutUint32(p[12:], uint32(tp.PC))
		le.PutUint64(p[16:], tp.Pat.W[0])
		le.PutUint64(p[24:], tp.Pat.W[1])
		p = p[framePatternLen:]
	}
	return b, nil
}

// decodeShardFrame parses a shard frame. It checks the magic, the module
// kind, the lane count (1..gpu.WarpSize) and that len(b) is exactly what
// the header's counts imply before it allocates, so a hostile body can
// neither crash the worker nor make it allocate past its own length.
func decodeShardFrame(b []byte) (*ShardRequest, error) {
	if len(b) < frameHeaderLen || string(b[:4]) != frameMagic {
		return nil, fmt.Errorf("dist: bad shard frame: missing %s header", frameMagic)
	}
	le := binary.LittleEndian
	kind, lanes := le.Uint16(b[12:]), int(le.Uint16(b[14:]))
	if int(kind) >= circuits.NumModuleKinds {
		return nil, fmt.Errorf("dist: bad shard frame: unknown module kind %d", kind)
	}
	if lanes < 1 || lanes > gpu.WarpSize {
		return nil, fmt.Errorf("dist: bad shard frame: lane count %d outside [1, %d]", lanes, gpu.WarpSize)
	}
	nf, np := le.Uint32(b[16:]), le.Uint32(b[20:])
	if want := frameLen(uint64(nf), uint64(np)); uint64(len(b)) != want {
		return nil, fmt.Errorf("dist: bad shard frame: %d bytes, header implies %d", len(b), want)
	}
	req := &ShardRequest{
		Shard:   int(le.Uint32(b[4:])),
		Attempt: int(le.Uint32(b[8:])),
		Module:  circuits.ModuleKind(kind),
		Lanes:   lanes,
	}
	p := b[frameHeaderLen:]
	if nf > 0 {
		req.Faults = make([]fault.Fault, nf)
	}
	for i := range req.Faults {
		if p[7] > 1 {
			return nil, fmt.Errorf("dist: bad shard frame: fault %d: stuck-at byte %d", i, p[7])
		}
		req.Faults[i] = fault.Fault{Lane: int16(le.Uint16(p)), Site: netlist.FaultSite{
			Gate: int32(le.Uint32(p[2:])), Pin: int8(p[6]), SA1: p[7] == 1}}
		p = p[frameFaultLen:]
	}
	if np > 0 {
		req.Stream = make([]fault.TimedPattern, np)
	}
	for i := range req.Stream {
		tp := &req.Stream[i]
		tp.CC = le.Uint64(p)
		tp.Lane = int16(le.Uint16(p[8:]))
		tp.Warp = int16(le.Uint16(p[10:]))
		tp.PC = int32(le.Uint32(p[12:]))
		tp.Pat.W = [2]uint64{le.Uint64(p[16:]), le.Uint64(p[24:])}
		p = p[framePatternLen:]
	}
	return req, nil
}
