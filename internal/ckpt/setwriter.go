package ckpt

import (
	"fmt"
	"time"

	"lcpio/internal/container"
	"lcpio/internal/ec"
	"lcpio/internal/obs"
	"lcpio/internal/stream"
	"lcpio/internal/wire"
)

// This file is the one set pipeline. writeSet lays a set out on the medium
// — header | payload | parity | manifest | footer — through stream.Engine:
// full and delta writes differ only in what their producer emits and how
// their commit stores it (put) and protects it (fold). It is also the
// external-placement surface of the set format: the svc daemon assembles
// sets chunk by chunk as session frames arrive — placement decided by its
// extent allocator rather than the in-order drain — and emits the header,
// manifest and footer through WriteSetHeader/FinalizeSet, which use the
// same encoders. A set finalized through them is read back by the
// unmodified Restore / VerifySet / ReadManifest paths.

// HeaderLen is the fixed set header size; externally placed chunks must
// start at or after this offset (parseManifest enforces it on read).
const HeaderLen = headerLen

// FooterLen is the fixed footer size; a set's total size is the manifest
// offset plus its encoded length plus FooterLen.
const FooterLen = footerLen

// setHeader encodes the header (magic, version) for m's format version; the
// manifest encoding opens with the same bytes.
func setHeader(m *Manifest) []byte {
	return wire.AppendUint32(wire.AppendUint32(make([]byte, 0, headerLen), magic), m.formatVersion())
}

// setFooter encodes the footer locating the encoded manifest mb at off.
func setFooter(off int64, mb []byte) []byte {
	foot := make([]byte, 0, footerLen)
	foot = wire.AppendUint64(foot, uint64(off))
	foot = wire.AppendUint64(foot, uint64(len(mb)))
	foot = wire.AppendUint32(foot, Digest(mb))
	return wire.AppendUint32(foot, magic)
}

// WriteSetHeader writes the format header for m's version at offset 0 of
// the medium (or medium view) the set occupies.
func WriteSetHeader(med Medium, m *Manifest) error {
	if _, err := med.WriteAt(setHeader(m), 0); err != nil {
		return fmt.Errorf("ckpt: writing header: %w", err)
	}
	return nil
}

// FinalizeSet encodes m at offset off, appends the footer, and returns the
// total set size — the exact Size() a medium view must report for
// ReadManifest to find the footer. Chunk offsets in m are relative to the
// same view and must land between the header and off.
func FinalizeSet(med Medium, m *Manifest, off int64) (int64, error) {
	if off < headerLen {
		return 0, fmt.Errorf("ckpt: manifest offset %d inside header", off)
	}
	for i := range m.Chunks {
		c := &m.Chunks[i]
		if c.Offset < headerLen || c.Size < 0 || c.Offset+c.Size > off {
			return 0, fmt.Errorf("ckpt: chunk %d extent [%d, %d) escapes payload [%d, %d)",
				i, c.Offset, c.Offset+c.Size, headerLen, off)
		}
	}
	mb := m.encode()
	if _, err := med.WriteAt(mb, off); err != nil {
		return 0, fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	if _, err := med.WriteAt(setFooter(off, mb), off+int64(len(mb))); err != nil {
		return 0, fmt.Errorf("ckpt: writing footer: %w", err)
	}
	return off + int64(len(mb)) + footerLen, nil
}

// ChunkProducer returns the stream producer factory that packs a set's
// (rank, field) chunks in rank-major index order, one reusable
// container.Packer per lane. ckpt.Write and the svc client both compress
// through it, so their blobs are byte-identical.
func ChunkProducer(set *Set, chunkElems int) func(lane int) stream.ProduceFunc[[]byte] {
	nFields := len(set.Fields)
	return packerLanes(set, chunkElems, func(p *container.Packer, idx int) ([]byte, int64, error) {
		f := &set.Fields[idx%nFields]
		blob, err := p.Pack(f.Data[idx/nFields], f.Dims, f.ErrorBound)
		return blob, int64(len(blob)), err
	})
}

// packerLanes builds a producer factory whose every lane owns one reusable
// container.Packer for the set's codec; a lane whose packer cannot be built
// reports that error for every index it takes, so it surfaces in order.
func packerLanes[T any](set *Set, chunkElems int,
	produce func(p *container.Packer, idx int) (T, int64, error)) func(lane int) stream.ProduceFunc[T] {
	return func(int) stream.ProduceFunc[T] {
		packer, err := container.NewPacker(set.Codec,
			container.Options{ChunkElems: chunkElems, Parallelism: 1})
		if err != nil {
			return func(int) (T, int64, error) {
				var zero T
				return zero, 0, err
			}
		}
		return func(idx int) (T, int64, error) { return produce(packer, idx) }
	}
}

// newManifest starts the manifest of a set about to be written: identity,
// fields and parity geometry. The caller adds the payload index.
func newManifest(set *Set, opts WriteOptions) *Manifest {
	m := &Manifest{
		SetName:     set.Name,
		Meta:        set.Meta,
		Codec:       set.Codec,
		Ranks:       set.Ranks,
		Fields:      make([]FieldInfo, len(set.Fields)),
		ParityRanks: opts.ParityRanks,
	}
	for i, f := range set.Fields {
		m.Fields[i] = FieldInfo{Name: f.Name, Dims: append([]int(nil), f.Dims...), ErrorBound: f.ErrorBound}
	}
	return m
}

// setWriter is the in-order drain's view of the set being laid out: every
// transfer rides writeChunk's retry path at the payload end, and the
// simulated write schedule is accounted as it goes.
type setWriter struct {
	med   Medium
	opts  WriteOptions
	m     *Manifest
	res   *WriteResult
	coder *ec.Coder
	// parity holds each field stripe's shard accumulators.
	parity [][][]byte
	offset int64
	// writerClock is the simulated drain timeline: a transfer starts when
	// both the wire is free and its item is produced (AvailAt);
	// compressWall is when the last item finished producing.
	writerClock, compressWall float64
}

// writeSet runs one set through the pipeline on the caller's goroutine: the
// header, then every produced item handed to commit in index order, then
// the tail. so names the pipeline trace and its produce stage; the
// scheduler shape and gauges come from opts and are the same for every
// set.
func writeSet[T any](med Medium, set *Set, opts WriteOptions, m *Manifest, so stream.Options,
	newProducer func(lane int) stream.ProduceFunc[T], commit func(w *setWriter, d stream.Item[T]) error) (*WriteResult, error) {
	if opts.ParityRanks < 0 || opts.ParityRanks > maxParityRanks {
		return nil, fmt.Errorf("ckpt: parity ranks %d outside [0, %d]", opts.ParityRanks, maxParityRanks)
	}
	nFields := len(set.Fields)
	n := set.Ranks * nFields
	w := &setWriter{med: med, opts: opts, m: m, offset: headerLen,
		res: &WriteResult{Manifest: m, Chunks: n, ParityRanks: opts.ParityRanks, BaseName: m.BaseName}}
	if opts.ParityRanks > 0 {
		var err error
		if w.coder, err = ec.New(set.Ranks, opts.ParityRanks); err != nil {
			return nil, err
		}
		w.parity = make([][][]byte, nFields)
	}

	// Lanes 0..Workers-1 are the producers; lane Workers is this in-order
	// writer; lane Workers+1 is the dispatcher.
	so.Workers, so.QueueDepth = opts.Workers, opts.QueueDepth
	so.QueueGauge, so.InFlightGauge = "lcpio_ckpt_queue_depth", "lcpio_ckpt_bytes_in_flight"
	eng := stream.Start(n, so, newProducer)
	defer eng.Close()
	wr := eng.Consumer()
	wr.Run("flush")
	if _, err := writeChunk(med, setHeader(m), 0, opts, w.res); err != nil {
		wr.WaitInput()
		return nil, fmt.Errorf("ckpt: writing header: %w", err)
	}
	wr.WaitInput()
	if err := eng.Drain(func(d stream.Item[T]) error {
		if d.Err != nil {
			return fmt.Errorf("ckpt: stream %d (rank %d, field %q): %w",
				d.Idx, d.Idx/nFields, set.Fields[d.Idx%nFields].Name, d.Err)
		}
		w.compressWall = max(w.compressWall, d.AvailAt)
		return commit(w, d)
	}); err != nil {
		return nil, err
	}
	wr.Run("flush")
	if err := w.finish(); err != nil {
		return nil, err
	}
	w.res.MeanRelEB = meanRelEB(*set)
	return w.res, nil
}

// write appends blob at the set's end, advancing the offset and the
// simulated schedule, and returns its offset. availAt is when the item it
// belongs to finished producing (0 for the tail).
func (w *setWriter) write(blob []byte, availAt float64) (int64, error) {
	simSec, err := writeChunk(w.med, blob, w.offset, w.opts, w.res)
	if err != nil {
		return 0, err
	}
	w.res.SimWriteSeconds += simSec
	w.writerClock = max(w.writerClock, availAt) + simSec
	off := w.offset
	w.offset += int64(len(blob))
	return off, nil
}

// put stores one payload blob in drain order and returns its offset.
func (w *setWriter) put(blob []byte, availAt float64) (int64, error) {
	off, err := w.write(blob, availAt)
	if err != nil {
		return 0, err
	}
	w.res.PayloadBytes += int64(len(blob))
	obs.Add("lcpio_ckpt_chunks_written_total", 1)
	obs.Add("lcpio_ckpt_bytes_written_total", int64(len(blob)))
	return off, nil
}

// fold adds the bytes stream idx stored — its member of the field stripe —
// to the parity accumulators as it drains, so parity generation pipelines
// alongside the production of later items. GF(2^8) accumulation is order-
// and padding-independent, so the shards are byte-identical at any worker
// count or queue depth.
func (w *setWriter) fold(idx int, region []byte) error {
	if w.coder == nil || len(region) == 0 {
		return nil
	}
	nFields := len(w.m.Fields)
	fi := idx % nFields
	start := time.Now()
	var err error
	w.parity[fi], err = w.coder.UpdateParity(w.parity[fi], idx/nFields, region, w.opts.Workers)
	if err != nil {
		return fmt.Errorf("ckpt: parity fold of stream %d: %w", idx, err)
	}
	w.res.ECEncodeSeconds += time.Since(start).Seconds()
	return nil
}

// finish writes the tail — parity shards field-major, then the manifest,
// then the footer — and completes the result.
func (w *setWriter) finish() error {
	m, res := w.m, w.res
	if w.coder != nil {
		nFields := len(m.Fields)
		m.ParityChunks = make([]ChunkInfo, nFields*m.ParityRanks)
		for fi := 0; fi < nFields; fi++ {
			shards := w.parity[fi]
			if shards == nil {
				// No rank of this field stored any bytes: the stripe is
				// empty and so are its shards.
				shards = make([][]byte, m.ParityRanks)
			}
			for j, blob := range shards {
				off, err := w.write(blob, 0)
				if err != nil {
					return fmt.Errorf("ckpt: parity shard (field %q, %d): %w", m.Fields[fi].Name, j, err)
				}
				*m.ParityChunk(fi, j) = ChunkInfo{Rank: m.Ranks + j, Field: fi,
					Offset: off, Size: int64(len(blob)), CRC: Digest(blob)}
				res.ParityBytes += int64(len(blob))
				obs.Add("lcpio_ckpt_parity_bytes_written_total", int64(len(blob)))
			}
		}
	}
	mb := m.encode()
	mOff, err := w.write(mb, 0)
	if err != nil {
		return fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	if _, err := writeChunk(w.med, setFooter(mOff, mb), w.offset, w.opts, res); err != nil {
		return fmt.Errorf("ckpt: writing footer: %w", err)
	}
	res.FileBytes = w.offset + footerLen
	res.RawBytes = m.RawBytes()
	res.Blobs = len(m.Blobs)
	res.setSchedules(w.compressWall, w.writerClock)
	obs.AddFloat("lcpio_ckpt_sim_write_seconds_total", res.SimWriteSeconds)
	obs.Set("lcpio_ckpt_queue_depth", 0)
	obs.Set("lcpio_ckpt_bytes_in_flight", 0)
	return nil
}
