package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"spatialrepart/internal/grid"
)

// Checkpoint file layout (DESIGN.md §3.16), all integers little-endian:
//
//	magic   [8]byte  "SPRTCKPT"
//	version uint16   checkpointVersion
//	length  uint64   payload byte count
//	payload []byte   (see encodePayload)
//	crc     uint32   CRC-32 (IEEE) of payload
//
// The payload carries the geometry (rows, cols, bounds, attributes) for
// validation against the restoring Repartitioner, then the aggregate state:
// the grid.Aggregates counts, sums and categorical vote maps (pairs sorted by
// value so the encoding is byte-deterministic), the serving counters, and
// the generation. The breaker and the served view are deliberately NOT
// persisted: both are transient serving state a restarted process re-derives
// (the first Current after Restore recomputes from the restored aggregates).
//
// Version 2 (DESIGN.md §3.21) inserts the WAL sequence the checkpoint covers
// — walSeq uint64, right after the sinceCheck counter — so a restore can
// replay exactly the WAL suffix the checkpoint does not already contain.
// Version-1 checkpoints are still read (walSeq = 0: replay everything).
//
// Both versions carry a refreshes counter after the recomputes counter. It is
// kept for the layout only: written as 0 and skipped on restore, so a file
// that holds a nonzero count still restores.
var checkpointMagic = [8]byte{'S', 'P', 'R', 'T', 'C', 'K', 'P', 'T'}

const checkpointVersion uint16 = 2

// maxCheckpointPayload caps the declared payload length Restore will accept
// (a corrupt header must not drive allocations).
const maxCheckpointPayload = 1 << 38

// ErrCheckpoint is wrapped into every corrupt-checkpoint error Restore
// returns, so callers can distinguish corruption from I/O failures.
var ErrCheckpoint = errors.New("stream: corrupt checkpoint")

// checkpointState is the deep-copied aggregate state one Checkpoint call
// persists, snapshotted under s.mu and encoded outside it.
type checkpointState struct {
	agg        *grid.Aggregates
	generation int
	sinceCheck int
	walSeq     uint64
	stats      Stats
}

// Checkpoint writes the stream's aggregate state to w in the versioned,
// CRC-protected binary format above. The aggregate lock is held only while
// the state is copied, never across the encode or the write, so ingestion
// and serving continue unstalled. The encoding is byte-deterministic: two
// checkpoints of identical state are identical files.
func (s *Repartitioner) Checkpoint(w io.Writer) error {
	_, err := s.CheckpointSeq(w)
	return err
}

// CheckpointSeq is Checkpoint, additionally returning the WAL sequence the
// written checkpoint covers — the sequence snapshotted atomically with the
// aggregates. Once the caller has made the checkpoint durable (fsynced and
// renamed into place), it may hand exactly this value to
// wal.Log.TruncateThrough: every sequence at or below it is now redundant
// with the checkpoint. Truncating by any fresher cursor (e.g. a later
// Stats().WALSeq) would discard records the checkpoint does not contain.
func (s *Repartitioner) CheckpointSeq(w io.Writer) (uint64, error) {
	if err := s.opts.Fault.Hit("stream.checkpoint"); err != nil {
		return 0, fmt.Errorf("stream: checkpoint: %w", err)
	}
	sp := s.opts.Obs.StartSpan("stream.checkpoint")
	defer sp.End()

	s.mu.Lock()
	st := checkpointState{
		agg:        s.agg.Clone(),
		generation: s.generation,
		sinceCheck: s.sinceLastCheck,
		walSeq:     s.walSeq,
		stats:      s.stats,
	}
	s.mu.Unlock()

	payload := encodePayload(st)
	var hdr bytes.Buffer
	hdr.Write(checkpointMagic[:])
	le := binary.LittleEndian
	var u16 [2]byte
	le.PutUint16(u16[:], checkpointVersion)
	hdr.Write(u16[:])
	var u64 [8]byte
	le.PutUint64(u64[:], uint64(len(payload)))
	hdr.Write(u64[:])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return 0, fmt.Errorf("stream: checkpoint write: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("stream: checkpoint write: %w", err)
	}
	var crc [4]byte
	le.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return 0, fmt.Errorf("stream: checkpoint write: %w", err)
	}

	s.mu.Lock()
	s.stats.Checkpoints++
	s.mu.Unlock()
	s.opts.Obs.Count("stream.checkpoints", 1)
	return st.walSeq, nil
}

// encodePayload serializes the snapshotted state. Categorical vote maps are
// emitted sorted by value bits so the bytes never depend on map iteration
// order.
func encodePayload(st checkpointState) []byte {
	var b bytes.Buffer
	le := binary.LittleEndian
	var scratch [8]byte
	putU32 := func(v uint32) { le.PutUint32(scratch[:4], v); b.Write(scratch[:4]) }
	putI64 := func(v int64) { le.PutUint64(scratch[:], uint64(v)); b.Write(scratch[:]) }
	putF64 := func(v float64) { le.PutUint64(scratch[:], math.Float64bits(v)); b.Write(scratch[:]) }

	agg := st.agg
	putU32(uint32(agg.Rows))
	putU32(uint32(agg.Cols))
	putF64(agg.Bounds.MinLat)
	putF64(agg.Bounds.MaxLat)
	putF64(agg.Bounds.MinLon)
	putF64(agg.Bounds.MaxLon)
	putU32(uint32(len(agg.Attrs)))
	for _, a := range agg.Attrs {
		putU32(uint32(len(a.Name)))
		b.WriteString(a.Name)
		var flags byte
		if a.Integer {
			flags |= 1
		}
		if a.Categorical {
			flags |= 2
		}
		b.WriteByte(byte(a.Agg))
		b.WriteByte(flags)
	}
	putI64(int64(st.generation))
	putI64(int64(st.sinceCheck))
	putI64(int64(st.walSeq)) // v2: the WAL sequence this checkpoint covers
	putI64(int64(st.stats.Accepted))
	putI64(int64(st.stats.Dropped))
	putI64(int64(st.stats.Recomputes))
	putI64(0) // the refreshes slot, kept for the layout
	putI64(int64(st.stats.RecomputeFailures))
	putI64(int64(st.stats.DegradedServes))
	putI64(int64(st.stats.Checkpoints))
	errStr := ""
	if st.stats.LastRecomputeErr != nil {
		errStr = st.stats.LastRecomputeErr.Error()
	}
	putU32(uint32(len(errStr)))
	b.WriteString(errStr)

	for _, n := range agg.Counts {
		putI64(int64(n))
	}
	for _, v := range agg.Sums {
		putF64(v)
	}
	putU32(uint32(len(agg.CatCols)))
	if len(agg.CatCols) > 0 {
		for _, m := range agg.Votes {
			putU32(uint32(len(m)))
			vals := make([]float64, 0, len(m))
			for v := range m {
				vals = append(vals, v)
			}
			// Sort by bit pattern: a total order even for NaN codes, so the
			// encoding is deterministic regardless of map iteration order.
			sort.Slice(vals, func(i, j int) bool {
				return math.Float64bits(vals[i]) < math.Float64bits(vals[j])
			})
			for _, v := range vals {
				putF64(v)
				putI64(int64(m[v]))
			}
		}
	}
	return b.Bytes()
}

// payloadReader decodes the checkpoint payload with strict bounds checking:
// every read failure surfaces as an ErrCheckpoint-wrapped error, never a
// panic — the FuzzRestore contract.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (p *payloadReader) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || p.off+n > len(p.buf) || p.off+n < p.off {
		p.err = fmt.Errorf("%w: truncated payload (want %d bytes at offset %d of %d)",
			ErrCheckpoint, n, p.off, len(p.buf))
		return nil
	}
	out := p.buf[p.off : p.off+n]
	p.off += n
	return out
}

func (p *payloadReader) u32() uint32 {
	if b := p.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (p *payloadReader) i64() int64 {
	if b := p.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (p *payloadReader) f64() float64 {
	if b := p.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (p *payloadReader) str(n int) string {
	if b := p.take(n); b != nil {
		return string(b)
	}
	return ""
}

// Restore replaces the stream's aggregate state with a checkpoint previously
// written by Checkpoint. The checkpoint's geometry — rows, cols, bounds, and
// the full attribute schema — must match the receiver exactly. Corrupted or
// truncated input returns an error wrapping ErrCheckpoint and leaves the
// receiver untouched; Restore never panics on malformed bytes. The served
// view is cleared (the next Current recomputes from the restored aggregates)
// and the breaker resets.
func (s *Repartitioner) Restore(r io.Reader) error {
	if err := s.opts.Fault.Hit("stream.restore"); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	sp := s.opts.Obs.StartSpan("stream.restore")
	defer sp.End()

	var hdr [18]byte // magic + version + payload length
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCheckpoint, err)
	}
	if !bytes.Equal(hdr[:8], checkpointMagic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrCheckpoint, hdr[:8])
	}
	le := binary.LittleEndian
	version := le.Uint16(hdr[8:10])
	if version != 1 && version != checkpointVersion {
		return fmt.Errorf("%w: unsupported version %d (want 1..%d)", ErrCheckpoint, version, checkpointVersion)
	}
	plen := le.Uint64(hdr[10:18])
	if plen > maxCheckpointPayload {
		return fmt.Errorf("%w: implausible payload length %d", ErrCheckpoint, plen)
	}
	// CopyN grows the buffer as bytes actually arrive, so a corrupt header
	// advertising a huge payload fails on the short read, not on the alloc.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, int64(plen)); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCheckpoint, err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return fmt.Errorf("%w: trailer: %v", ErrCheckpoint, err)
	}
	if got, want := crc32.ChecksumIEEE(payload.Bytes()), le.Uint32(crcb[:]); got != want {
		return fmt.Errorf("%w: CRC mismatch (payload %08x, trailer %08x)", ErrCheckpoint, got, want)
	}

	p := &payloadReader{buf: payload.Bytes()}
	rows, cols := int(p.u32()), int(p.u32())
	var b grid.Bounds
	b.MinLat, b.MaxLat, b.MinLon, b.MaxLon = p.f64(), p.f64(), p.f64(), p.f64()
	nattrs := int(p.u32())
	if p.err != nil {
		return p.err
	}
	if rows != s.agg.Rows || cols != s.agg.Cols {
		return fmt.Errorf("%w: geometry %dx%d does not match receiver %dx%d",
			ErrCheckpoint, rows, cols, s.agg.Rows, s.agg.Cols)
	}
	if b != s.agg.Bounds {
		return fmt.Errorf("%w: bounds %+v do not match receiver %+v", ErrCheckpoint, b, s.agg.Bounds)
	}
	if nattrs != len(s.agg.Attrs) {
		return fmt.Errorf("%w: %d attributes do not match receiver's %d", ErrCheckpoint, nattrs, len(s.agg.Attrs))
	}
	for k := 0; k < nattrs; k++ {
		name := p.str(int(p.u32()))
		agg := grid.AggType(0)
		var flags byte
		if raw := p.take(2); raw != nil {
			agg, flags = grid.AggType(raw[0]), raw[1]
		}
		if p.err != nil {
			return p.err
		}
		want := s.agg.Attrs[k]
		got := grid.Attribute{Name: name, Agg: agg, Integer: flags&1 != 0, Categorical: flags&2 != 0}
		if got != want {
			return fmt.Errorf("%w: attribute %d is %+v, receiver wants %+v", ErrCheckpoint, k, got, want)
		}
	}

	generation := int(p.i64())
	sinceCheck := int(p.i64())
	var walSeq uint64
	if version >= 2 {
		walSeq = uint64(p.i64())
	}
	var st Stats
	st.Accepted = int(p.i64())
	st.Dropped = int(p.i64())
	st.Recomputes = int(p.i64())
	p.i64() // the refreshes slot: Stats.Refreshes is always 0
	st.RecomputeFailures = int(p.i64())
	st.DegradedServes = int(p.i64())
	st.Checkpoints = int(p.i64())
	if errStr := p.str(int(p.u32())); errStr != "" {
		st.LastRecomputeErr = errors.New(errStr)
	}

	ncell := rows * cols
	counts := make([]int, ncell)
	for i := range counts {
		counts[i] = int(p.i64())
	}
	sums := make([]float64, ncell*nattrs)
	for i := range sums {
		sums[i] = p.f64()
	}
	ncat := int(p.u32())
	if p.err != nil {
		return p.err
	}
	if ncat != len(s.agg.CatCols) {
		return fmt.Errorf("%w: %d categorical columns do not match receiver's %d",
			ErrCheckpoint, ncat, len(s.agg.CatCols))
	}
	var cats []map[float64]int
	if ncat > 0 {
		cats = make([]map[float64]int, ncell*ncat)
		for i := range cats {
			npairs := int(p.u32())
			if p.err != nil {
				return p.err
			}
			// Each pair costs 16 payload bytes: reject pair counts the
			// remaining buffer cannot possibly hold before allocating.
			if npairs < 0 || npairs > (len(p.buf)-p.off)/16 {
				return fmt.Errorf("%w: vote map %d claims %d pairs with %d bytes left",
					ErrCheckpoint, i, npairs, len(p.buf)-p.off)
			}
			if npairs == 0 {
				continue
			}
			m := make(map[float64]int, npairs)
			for j := 0; j < npairs; j++ {
				v := p.f64()
				m[v] = int(p.i64())
			}
			cats[i] = m
		}
	}
	if p.err != nil {
		return p.err
	}
	if p.off != len(p.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCheckpoint, len(p.buf)-p.off)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg.Counts, s.agg.Sums, s.agg.Votes = counts, sums, cats
	s.generation = generation
	s.sinceLastCheck = sinceCheck
	s.walSeq = walSeq
	s.stats = st
	s.current = nil
	s.brk.Success()
	s.opts.Obs.Count("stream.restores", 1)
	s.opts.Obs.SetGauge("stream.generation", float64(s.generation))
	s.opts.Obs.SetGauge("stream.lag_records", float64(s.sinceLastCheck))
	return nil
}
