package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"lcpio/internal/container"
	"lcpio/internal/dedup"
	"lcpio/internal/ec"
	"lcpio/internal/obs"
	"lcpio/internal/wire"
)

// Delta checkpoints (format v3).
//
// A delta set stores only content the base chain does not already hold.
// Each (rank, field) payload is content-defined-chunked (dedup.Split) in
// its ORIGINAL float32 domain; every chunk is then classified:
//
//  1. exact: its digest is present in the base's index of RESTORED
//     content — the chunk becomes a by-reference entry to that location;
//  2. unchanged-within-bound: every value of the chunk is within the
//     field's error bound of the base's restored value at the same
//     position — exactly the lossy codec's contract, so serving the base's
//     bytes for this chunk is as correct as recompressing it. The entry
//     references the same position and carries the digest of the base's
//     restored bytes there, which restore checks byte-exactly;
//  3. changed: the chunk is compressed on its own (a 1-D container blob)
//     and stored, deduplicated against identical chunks already committed
//     in THIS set (intra-set sharing via refcounts).
//
// Classification happens in the workers; which chunks become new blobs is
// decided in the in-order drain loop, so blob IDs, offsets, refcounts and
// the entire file are byte-identical at any worker count.
//
// Matching restored-domain content (not as-stored compressed bytes) is the
// load-bearing choice: predictor-based codecs like SZ cascade any edit
// into the compressed representation of later, unchanged values, so
// as-stored bytes are unstable under churn — restored values are the
// stable contract surface the codec actually guarantees.

// Base is a restored checkpoint set prepared for delta writes against it:
// the restored content of every (rank, field), a digest index over its
// content-defined chunks, and the manifest pin a delta set will record.
type Base struct {
	// Manifest is the base set's manifest; Pin authenticates it (CRC32C of
	// its canonical encoding) so restore can refuse a swapped base.
	Manifest *Manifest
	Pin      uint32

	params dedup.Params
	// raw holds the restored little-endian float32 bytes per rank-major
	// (rank, field) stream.
	raw [][]byte
	// index maps digests of the base's content-defined chunks (over
	// restored bytes) to their locations.
	index *dedup.Index
}

// DedupParams returns the chunking geometry the base was indexed with —
// the geometry Write will use for deltas against it.
func (b *Base) DedupParams() dedup.Params { return b.params }

// OpenBase restores the set on med (resolving its own base chain through
// the chain media, immediate base first) and indexes its restored content
// for delta writes. The dedup params become the delta set's chunking
// geometry; zero values take the package defaults, alignment is forced to
// whole float32s.
func OpenBase(med Medium, chain []Medium, p dedup.Params, opts RestoreOptions) (*Base, error) {
	p.Align = dedupAlign
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts.AllowPartial = false
	opts.Bases = chain
	res, err := Restore(med, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: opening base: %v", ErrBase, err)
	}
	if res.Manifest.ChainDepth+1 > maxChainDepth {
		return nil, fmt.Errorf("ckpt: base chain depth %d would exceed cap %d",
			res.Manifest.ChainDepth+1, maxChainDepth)
	}
	b := &Base{
		Manifest: res.Manifest,
		Pin:      Digest(res.Manifest.encode()),
		params:   p,
		raw:      make([][]byte, res.Manifest.Ranks*len(res.Manifest.Fields)),
		index:    dedup.NewIndex(),
	}
	nFields := len(res.Manifest.Fields)
	for fi := range res.Fields {
		for r, data := range res.Fields[fi].Data {
			s := r*nFields + fi
			b.raw[s] = f32le(data)
			prev := 0
			for _, cut := range dedup.Split(b.raw[s], p) {
				b.index.Add(dedup.Sum(b.raw[s][prev:cut]), dedup.Location{
					Rank: r, Field: fi, RawOff: int64(prev), RawLen: int64(cut - prev),
				})
				prev = cut
			}
		}
	}
	return b, nil
}

// f32le serializes float32s as little-endian bytes — the byte domain the
// chunker, digests, and base references all live in.
func f32le(data []float32) []byte {
	b := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

// withinBound reports whether every value of cur is within bound of the
// base's restored value at the same position (baseRaw in LE float32
// bytes). NaNs never match.
func withinBound(cur []float32, baseRaw []byte, bound float64) bool {
	for i, v := range cur {
		bv := math.Float32frombits(binary.LittleEndian.Uint32(baseRaw[i*4:]))
		d := float64(v) - float64(bv)
		if !(d <= bound && d >= -bound) {
			return false
		}
	}
	return true
}

// deltaEntry is one manifest-bound run travelling from a worker to the
// drain loop: either a resolved base reference or a compressed local
// candidate whose fate (new blob vs intra-set share) the drain decides.
// A run covers one or more consecutive content-defined chunks of equal
// classification — merging is a pure encoding win (one container stream,
// one manifest entry) and changes nothing about chunk-level matching.
type deltaEntry struct {
	rawLen int
	chunks int      // content-defined chunks merged into this run
	ref    ChunkRef // Blob == -1: base reference, ready for the manifest
	local  bool
	blob   []byte       // compressed run (local candidates)
	digest dedup.Digest // original-bytes digest (intra-set dedup key)
}

type deltaDone struct {
	idx     int
	entries []deltaEntry
	err     error
	availAt float64
}

// maxRefRunLen caps merged base-reference runs so RawLen stays well inside
// its uint32 wire field.
const maxRefRunLen = 1 << 30

// classifyStream chunks one (rank, field) payload, classifies every chunk
// against the base, merges runs, and compresses local runs — all here in
// the worker, so only the dedup decision is left for the drain loop.
func classifyStream(set *Set, base *Base, idx int, packer *container.Packer) ([]deltaEntry, error) {
	nFields := len(set.Fields)
	rank, fi := idx/nFields, idx%nFields
	f := &set.Fields[fi]
	raw := f32le(f.Data[rank])
	baseRaw := base.raw[idx]
	cuts := dedup.Split(raw, base.params)

	// Per-chunk classification: local, or a reference into some base
	// stream's restored bytes.
	type chunkClass struct {
		start, end int
		local      bool
		baseStream int
		baseOff    int64
	}
	classes := make([]chunkClass, 0, len(cuts))
	prev := 0
	for _, cut := range cuts {
		n := cut - prev
		if loc, ok := base.index.Lookup(dedup.Sum(raw[prev:cut])); ok && loc.RawLen == int64(n) {
			// Exact content match somewhere in the base's restored data.
			classes = append(classes, chunkClass{prev, cut, false, loc.Rank*nFields + loc.Field, loc.RawOff})
		} else if withinBound(f.Data[rank][prev/4:cut/4], baseRaw[prev:cut], f.ErrorBound) {
			// Unchanged within the codec's contract: reference the base's
			// restored bytes at the same position.
			classes = append(classes, chunkClass{prev, cut, false, idx, int64(prev)})
		} else {
			classes = append(classes, chunkClass{prev, cut, true, 0, 0})
		}
		prev = cut
	}

	// Merge pass: consecutive local chunks become one compressed run;
	// consecutive references contiguous in the same base stream become one
	// spanning reference (digest over the whole base range).
	var entries []deltaEntry
	for i := 0; i < len(classes); {
		c := classes[i]
		j := i + 1
		if c.local {
			end := c.end
			for j < len(classes) && classes[j].local && classes[j].end-c.start <= dedup.MaxChunkSize {
				end = classes[j].end
				j++
			}
			blob, err := packer.Pack(f.Data[rank][c.start/4:end/4], []int{(end - c.start) / 4}, f.ErrorBound)
			if err != nil {
				return nil, err
			}
			entries = append(entries, deltaEntry{
				rawLen: end - c.start, chunks: j - i, local: true,
				blob: blob, digest: dedup.Sum(raw[c.start:end]),
			})
		} else {
			endOff := c.baseOff + int64(c.end-c.start)
			for j < len(classes) && !classes[j].local && classes[j].baseStream == c.baseStream &&
				classes[j].baseOff == endOff && endOff-c.baseOff < maxRefRunLen {
				endOff += int64(classes[j].end - classes[j].start)
				j++
			}
			n := int(endOff - c.baseOff)
			entries = append(entries, deltaEntry{rawLen: n, chunks: j - i, ref: ChunkRef{
				RawLen: n, Blob: -1, BaseRank: c.baseStream / nFields, BaseField: c.baseStream % nFields,
				BaseRawOff: c.baseOff, Digest: dedup.Sum(base.raw[c.baseStream][c.baseOff:endOff]),
			}})
		}
		i = j
	}
	return entries, nil
}

// writeDelta is Write's format-v3 path: the same pipelined scheduler, but
// workers chunk/hash/classify/compress and the in-order drain commits only
// content the base chain lacks.
func writeDelta(med Medium, set Set, opts WriteOptions) (*WriteResult, error) {
	base := opts.Base
	span := obs.Start("ckpt.write.delta")
	defer span.End()
	// Lanes 0..Workers-1 chunk/classify/compress; lane Workers is the
	// in-order drain on the caller's goroutine.
	pt := obs.StartPipeline("ckpt.delta_write", opts.Workers+1)
	defer pt.End()
	if err := sameGeometry(set.Ranks, setFieldInfos(set), base.Manifest); err != nil {
		return nil, fmt.Errorf("ckpt: delta against base %q: %w", base.Manifest.SetName, err)
	}
	if base.Manifest.ChainDepth+1 > maxChainDepth {
		return nil, fmt.Errorf("ckpt: base chain depth %d exceeds cap %d",
			base.Manifest.ChainDepth+1, maxChainDepth)
	}
	nFields := len(set.Fields)
	n := set.Ranks * nFields
	var coder *ec.Coder
	if opts.ParityRanks < 0 || opts.ParityRanks > maxParityRanks {
		return nil, fmt.Errorf("ckpt: parity ranks %d outside [0, %d]", opts.ParityRanks, maxParityRanks)
	}
	if opts.ParityRanks > 0 {
		var err error
		if coder, err = ec.New(set.Ranks, opts.ParityRanks); err != nil {
			return nil, err
		}
	}
	start := time.Now()

	sem := make(chan struct{}, opts.QueueDepth)
	tasks := make(chan int)
	results := make(chan deltaDone, opts.Workers)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(tasks)
		for idx := 0; idx < n; idx++ {
			select {
			case sem <- struct{}{}:
			case <-quit:
				return
			}
			select {
			case tasks <- idx:
			case <-quit:
				return
			}
		}
	}()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		wc := pt.Worker(w)
		go func() {
			defer wg.Done()
			packer, perr := container.NewPacker(set.Codec,
				container.Options{ChunkElems: opts.ChunkElems, Parallelism: 1})
			for idx := range tasks {
				wc.Run("classify_compress")
				d := deltaDone{idx: idx, err: perr}
				if perr == nil {
					d.entries, d.err = classifyStream(&set, base, idx, packer)
				}
				d.availAt = time.Since(start).Seconds()
				wc.WaitOutput()
				select {
				case results <- d:
				case <-quit:
					return
				}
				wc.WaitInput()
			}
		}()
	}

	p := base.params
	m := &Manifest{
		SetName:     set.Name,
		Meta:        set.Meta,
		Codec:       set.Codec,
		Ranks:       set.Ranks,
		Fields:      make([]FieldInfo, nFields),
		ParityRanks: opts.ParityRanks,
		BaseName:    base.Manifest.SetName,
		BasePin:     base.Pin,
		ChainDepth:  base.Manifest.ChainDepth + 1,
		DedupMin:    p.MinSize,
		DedupAvg:    p.AvgSize,
		DedupMax:    p.MaxSize,
		Entries:     make([][]ChunkRef, n),
	}
	for i, f := range set.Fields {
		m.Fields[i] = FieldInfo{Name: f.Name, Dims: append([]int(nil), f.Dims...), ErrorBound: f.ErrorBound}
	}

	res := &WriteResult{Manifest: m, Chunks: n, ParityRanks: opts.ParityRanks, BaseName: base.Manifest.SetName}
	var header [headerLen]byte
	wire.AppendUint32(wire.AppendUint32(header[:0], magic), version3)
	var fatal error
	wr := pt.Worker(opts.Workers)
	wr.Run("flush")
	if _, err := writeChunk(med, header[:], 0, opts, res); err != nil {
		fatal = fmt.Errorf("ckpt: writing header: %w", err)
	}
	wr.WaitInput()

	// In-order drain: base refs go straight to the manifest; local
	// candidates are dedup'd against blobs already committed in this set
	// (drain order = logical order, so the intra-set index — and therefore
	// blob IDs, offsets and refcounts — is worker-count independent).
	intra := make(map[dedup.Digest]int)
	pending := make(map[int]deltaDone, opts.QueueDepth)
	var writerClock, compressWall float64
	offset := int64(headerLen)
	nextWrite := 0
	var parity [][][]byte
	if coder != nil {
		parity = make([][][]byte, nFields)
	}
	for nextWrite < n && fatal == nil {
		d, open := <-results
		if !open {
			break
		}
		pending[d.idx] = d
		obs.Set("lcpio_ckpt_queue_depth", float64(len(pending)))
		for fatal == nil {
			d, ok := pending[nextWrite]
			if !ok {
				break
			}
			wr.Run("drain")
			delete(pending, nextWrite)
			if d.err != nil {
				fatal = fmt.Errorf("ckpt: stream %d (rank %d, field %q): %w",
					d.idx, d.idx/nFields, set.Fields[d.idx%nFields].Name, d.err)
				break
			}
			if d.availAt > compressWall {
				compressWall = d.availAt
			}
			rank, fi := nextWrite/nFields, nextWrite%nFields
			stream := make([]ChunkRef, 0, len(d.entries))
			var region []byte // this stream's newly committed blob bytes, for parity
			for _, e := range d.entries {
				if !e.local {
					stream = append(stream, e.ref)
					res.ChunksRef += e.chunks
					res.RefRawBytes += int64(e.rawLen)
					continue
				}
				if id, ok := intra[e.digest]; ok && m.Blobs[id].RawLen == e.rawLen {
					m.Blobs[id].Refs++
					stream = append(stream, ChunkRef{RawLen: e.rawLen, Blob: id})
					res.ChunksShared += e.chunks
					res.RefRawBytes += int64(e.rawLen)
					continue
				}
				id := len(m.Blobs)
				simSec, err := writeChunk(med, e.blob, offset, opts, res)
				if err != nil {
					fatal = fmt.Errorf("ckpt: blob %d: %w", id, err)
					break
				}
				res.SimWriteSeconds += simSec
				if d.availAt > writerClock {
					writerClock = d.availAt
				}
				writerClock += simSec
				m.Blobs = append(m.Blobs, BlobInfo{
					Offset: offset, Size: int64(len(e.blob)), CRC: Digest(e.blob),
					RawLen: e.rawLen, Digest: e.digest, Refs: 1, owner: nextWrite,
				})
				intra[e.digest] = id
				stream = append(stream, ChunkRef{RawLen: e.rawLen, Blob: id})
				region = append(region, e.blob...)
				offset += int64(len(e.blob))
				res.PayloadBytes += int64(len(e.blob))
				res.ChunksLocal += e.chunks
				res.LocalRawBytes += int64(e.rawLen)
				obs.Add("lcpio_ckpt_chunks_written_total", 1)
				obs.Add("lcpio_ckpt_bytes_written_total", int64(len(e.blob)))
			}
			if fatal != nil {
				break
			}
			m.Entries[nextWrite] = stream
			if coder != nil && len(region) > 0 {
				ecStart := time.Now()
				var err error
				parity[fi], err = coder.UpdateParity(parity[fi], rank, region, opts.Workers)
				if err != nil {
					fatal = fmt.Errorf("ckpt: parity fold of stream %d: %w", nextWrite, err)
					break
				}
				res.ECEncodeSeconds += time.Since(ecStart).Seconds()
			}
			<-sem
			nextWrite++
		}
		wr.WaitInput()
	}
	close(quit)
	wg.Wait()
	if fatal == nil && nextWrite < n {
		fatal = errors.New("ckpt: pipeline ended early") // defensive; unreachable
	}
	if fatal != nil {
		return nil, fatal
	}
	wr.Run("flush")

	if coder != nil {
		m.ParityChunks = make([]ChunkInfo, nFields*opts.ParityRanks)
		for fi := 0; fi < nFields; fi++ {
			shards := parity[fi]
			if shards == nil {
				// No rank of this field stored any local bytes: the stripe is
				// empty and so are its shards.
				shards = make([][]byte, opts.ParityRanks)
			}
			for j := 0; j < opts.ParityRanks; j++ {
				blob := shards[j]
				c := m.ParityChunk(fi, j)
				c.Rank, c.Field = set.Ranks+j, fi
				c.Offset = offset
				c.Size = int64(len(blob))
				c.CRC = Digest(blob)
				simSec, err := writeChunk(med, blob, offset, opts, res)
				if err != nil {
					return nil, fmt.Errorf("ckpt: parity shard (field %q, %d): %w",
						set.Fields[fi].Name, j, err)
				}
				res.SimWriteSeconds += simSec
				writerClock += simSec
				offset += c.Size
				res.ParityBytes += c.Size
				obs.Add("lcpio_ckpt_parity_bytes_written_total", c.Size)
			}
		}
	}

	mb := m.encode()
	simSec, err := writeChunk(med, mb, offset, opts, res)
	if err != nil {
		return nil, fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	res.SimWriteSeconds += simSec
	writerClock += simSec
	var foot []byte
	foot = wire.AppendUint64(foot, uint64(offset))
	foot = wire.AppendUint64(foot, uint64(len(mb)))
	foot = wire.AppendUint32(foot, Digest(mb))
	foot = wire.AppendUint32(foot, magic)
	if _, err := writeChunk(med, foot, offset+int64(len(mb)), opts, res); err != nil {
		return nil, fmt.Errorf("ckpt: writing footer: %w", err)
	}

	res.Blobs = len(m.Blobs)
	res.FileBytes = offset + int64(len(mb)) + footerLen
	res.RawBytes = m.RawBytes()
	res.setSchedules(compressWall, writerClock)
	res.MeanRelEB = meanRelEB(set)
	obs.AddFloat("lcpio_ckpt_sim_write_seconds_total", res.SimWriteSeconds)
	obs.Set("lcpio_ckpt_queue_depth", 0)
	return res, nil
}

// setFieldInfos adapts a Set's fields for geometry comparison.
func setFieldInfos(set Set) []FieldInfo {
	fs := make([]FieldInfo, len(set.Fields))
	for i, f := range set.Fields {
		fs[i] = FieldInfo{Name: f.Name, Dims: f.Dims}
	}
	return fs
}

// sameGeometry checks that (ranks, fields) matches the base manifest's
// geometry: delta sets reference base content positionally, so rank count,
// field order/names and shapes must agree (error bounds may differ).
func sameGeometry(ranks int, fields []FieldInfo, bm *Manifest) error {
	if ranks != bm.Ranks {
		return fmt.Errorf("rank count %d != base %d", ranks, bm.Ranks)
	}
	if len(fields) != len(bm.Fields) {
		return fmt.Errorf("field count %d != base %d", len(fields), len(bm.Fields))
	}
	for i, f := range fields {
		bf := &bm.Fields[i]
		if f.Name != bf.Name {
			return fmt.Errorf("field %d is %q, base has %q", i, f.Name, bf.Name)
		}
		if !dimsEqual(f.Dims, bf.Dims) {
			return fmt.Errorf("field %q dims %v != base %v", f.Name, f.Dims, bf.Dims)
		}
	}
	return nil
}

// blobOutcome is the pass-1 result for one stored blob of a delta set.
type blobOutcome struct {
	data          []float32
	raw           []byte // verified compressed bytes; kept only on parity sets
	err           error
	reread        bool
	reconstructed bool
	retries       int64
	simSec        float64
}

// restoreDelta is Restore's format-v3 path: resolve the base chain, read
// and decode this set's blobs (reconstructing lost ones from parity), then
// assemble every (rank, field) payload from local blobs and digest-checked
// base references.
func restoreDelta(med Medium, m *Manifest, manifestRetries int64, opts RestoreOptions) (*Restored, error) {
	baseRes, err := resolveBase(m, opts.Bases, opts)
	if err != nil {
		return nil, err
	}
	nFields := len(m.Fields)
	out := &Restored{Manifest: m, Base: baseRes, Fields: make([]RestoredField, nFields)}
	rep := &out.Report
	rep.Retries = manifestRetries + baseRes.Report.Retries
	rep.SimReadSeconds = float64(1+manifestRetries)*
		opts.Mount.Read(int64(len(m.encode()))+footerLen).NetworkSeconds +
		baseRes.Report.SimReadSeconds

	// Pass 1: fetch, verify and decode every stored blob in parallel.
	keepRaw := m.ParityRanks > 0
	outcomes := make([]blobOutcome, len(m.Blobs))
	parallelOver(len(m.Blobs), opts.Workers, func(i int) {
		outcomes[i] = restoreBlob(med, m, i, opts, keepRaw)
	})
	for i := range outcomes {
		o := &outcomes[i]
		rep.SimReadSeconds += o.simSec
		rep.Retries += o.retries
		if o.reread {
			rep.ChunksReread++
			obs.Add("lcpio_ckpt_chunks_reread_total", 1)
		}
	}
	if keepRaw {
		reconstructBlobs(med, m, outcomes, opts, rep)
	}

	// Pass 2: assemble each (rank, field) payload. Base references copy
	// the base's restored values and are digest-checked byte-exactly —
	// a mismatch means the base's content is not what the writer saw.
	baseRaw := make([][]byte, m.Ranks*nFields)
	for fi := range baseRes.Fields {
		for r, data := range baseRes.Fields[fi].Data {
			baseRaw[r*nFields+fi] = f32le(data)
		}
	}
	for fi, f := range m.Fields {
		out.Fields[fi] = RestoredField{
			Name:       f.Name,
			Dims:       append([]int(nil), f.Dims...),
			ErrorBound: f.ErrorBound,
			Data:       make([][]float32, m.Ranks),
		}
	}
	streamData := make([][]float32, m.Ranks*nFields)
	streamErr := make([]error, m.Ranks*nFields)
	parallelOver(m.Ranks*nFields, opts.Workers, func(s int) {
		streamData[s], streamErr[s] = assembleStream(m, s, outcomes, baseRes, baseRaw[s])
	})

	rankOK := make([]bool, m.Ranks)
	for s := 0; s < m.Ranks*nFields; s++ {
		rank, fi := s/nFields, s%nFields
		if streamErr[s] != nil {
			rep.Failed = append(rep.Failed, ChunkError{Rank: rank, Field: fi, Err: streamErr[s]})
			continue
		}
		rep.ChunksOK++
		rankOK[rank] = true
		out.Fields[fi].Data[rank] = streamData[s]
	}
	for i := range outcomes {
		if outcomes[i].reconstructed {
			rep.ChunksReconstructed++
			rep.ReconstructedRanks = append(rep.ReconstructedRanks, m.Blobs[i].owner/nFields)
			obs.Add("lcpio_ckpt_chunks_reconstructed_total", 1)
		}
	}
	for r, ok := range rankOK {
		if !ok {
			rep.MissingRanks = append(rep.MissingRanks, r)
		}
	}
	rep.normalize()
	if len(rep.Failed) > 0 && !opts.AllowPartial {
		first := rep.Failed[0]
		return nil, fmt.Errorf("ckpt: %d of %d chunks unrecoverable (first: rank %d, field %d: %w)",
			len(rep.Failed), m.Ranks*nFields, first.Rank, first.Field, first.Err)
	}
	return out, nil
}

// resolveBase restores and authenticates the immediate base of a delta
// set: the chain must be provided, the restored base must match the
// recorded name + pin, sit one step shallower in the chain, and share the
// set's geometry. Every failure is an ErrBase kind — the delta set itself
// may be intact.
func resolveBase(m *Manifest, bases []Medium, opts RestoreOptions) (*Restored, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("%w: delta set %q requires base %q", ErrBase, m.SetName, m.BaseName)
	}
	baseOpts := RestoreOptions{Workers: opts.Workers, Retry: opts.Retry, Mount: opts.Mount, Bases: bases[1:]}
	baseRes, err := Restore(bases[0], baseOpts)
	if err != nil {
		if errors.Is(err, ErrBase) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: restoring base %q: %v", ErrBase, m.BaseName, err)
	}
	bm := baseRes.Manifest
	if bm.SetName != m.BaseName || Digest(bm.encode()) != m.BasePin {
		return nil, fmt.Errorf("%w: base %q fails pin check (wrong or modified base)", ErrBase, m.BaseName)
	}
	if bm.ChainDepth != m.ChainDepth-1 {
		return nil, fmt.Errorf("%w: base %q chain depth %d, expected %d",
			ErrBase, m.BaseName, bm.ChainDepth, m.ChainDepth-1)
	}
	if err := sameGeometry(m.Ranks, m.Fields, bm); err != nil {
		return nil, fmt.Errorf("%w: base %q geometry: %v", ErrBase, m.BaseName, err)
	}
	return baseRes, nil
}

// verifyDelta scans a delta set: every stored blob's CRC (and payload, in
// deep mode), the parity shards, and — when the base chain is provided —
// every base reference's content digest against the actually restored
// base. Without the chain, references go unchecked and BaseErr says so.
func verifyDelta(med Medium, m *Manifest, opts VerifyOptions, workers int) (*VerifyReport, error) {
	nFields := len(m.Fields)
	nBlobs := len(m.Blobs)
	rep := &VerifyReport{Chunks: nBlobs, ParityChunks: m.NumParityChunks()}
	errs := make([]error, nBlobs+rep.ParityChunks)
	parallelOver(len(errs), workers, func(i int) {
		var off, size int64
		var crc uint32
		if i < nBlobs {
			b := &m.Blobs[i]
			off, size, crc = b.Offset, b.Size, b.CRC
		} else {
			c := &m.ParityChunks[i-nBlobs]
			off, size, crc = c.Offset, c.Size, c.CRC
		}
		buf := make([]byte, size)
		if _, err := med.ReadAt(buf, off); err != nil {
			errs[i] = err
			return
		}
		if Digest(buf) != crc {
			errs[i] = fmt.Errorf("%w: chunk digest mismatch", ErrCorrupt)
			return
		}
		if opts.Deep && i < nBlobs {
			var o blobOutcome
			decodeBlob(&o, &m.Blobs[i], buf)
			errs[i] = o.err
		}
	})
	// Erasure budget accounting groups failed blobs by owning rank — the
	// stripe member parity can rebuild.
	lostRanks := make([]map[int]bool, nFields)
	for fi := range lostRanks {
		lostRanks[fi] = make(map[int]bool)
	}
	for i, err := range errs[:nBlobs] {
		owner := m.Blobs[i].owner
		rank, fi := owner/nFields, owner%nFields
		if err == nil {
			rep.ChunksOK++
		} else {
			rep.Failed = append(rep.Failed, ChunkError{Rank: rank, Field: fi, Err: err})
			lostRanks[fi][rank] = true
		}
	}
	lostParity := make([]int, nFields)
	for i, err := range errs[nBlobs:] {
		c := &m.ParityChunks[i]
		if err == nil {
			rep.ParityOK++
		} else {
			rep.ParityFailed = append(rep.ParityFailed, ChunkError{Rank: c.Rank, Field: c.Field, Err: err})
			lostParity[c.Field]++
		}
	}
	rep.Reconstructable = true
	for fi := range lostRanks {
		if n := len(lostRanks[fi]) + lostParity[fi]; n > 0 && (m.ParityRanks == 0 || n > m.ParityRanks) {
			rep.Reconstructable = false
		}
	}

	for _, stream := range m.Entries {
		for _, e := range stream {
			if !e.Local() {
				rep.RefChunks++
			}
		}
	}
	if rep.RefChunks == 0 {
		return rep, nil
	}
	if len(opts.Bases) == 0 {
		rep.BaseErr = fmt.Errorf("%w: base chain for %q not provided; %d references unchecked",
			ErrBase, m.BaseName, rep.RefChunks)
		return rep, nil
	}
	baseRes, err := resolveBase(m, opts.Bases, RestoreOptions{Workers: workers})
	if err != nil {
		rep.BaseErr = err
		return rep, nil
	}
	baseRaw := make([][]byte, m.Ranks*nFields)
	for fi := range baseRes.Fields {
		for r, data := range baseRes.Fields[fi].Data {
			baseRaw[r*nFields+fi] = f32le(data)
		}
	}
	for s, stream := range m.Entries {
		rank, fi := s/nFields, s%nFields
		for _, e := range stream {
			if e.Local() {
				continue
			}
			bb := baseRaw[e.BaseRank*nFields+e.BaseField][e.BaseRawOff : e.BaseRawOff+int64(e.RawLen)]
			if dedup.Sum(bb) != e.Digest {
				rep.Failed = append(rep.Failed, ChunkError{Rank: rank, Field: fi,
					Err: fmt.Errorf("%w: base content digest mismatch at (rank %d, field %d, off %d)",
						ErrBase, e.BaseRank, e.BaseField, e.BaseRawOff)})
				rep.Reconstructable = false // base damage is beyond this set's parity
				continue
			}
			rep.RefsOK++
		}
	}
	return rep, nil
}

// assembleStream rebuilds one (rank, field) payload from blob outcomes and
// digest-checked base references. baseRaw is the base's restored bytes for
// the SAME stream (positional refs are the common case; cross-stream exact
// refs re-serialize lazily).
func assembleStream(m *Manifest, s int, outcomes []blobOutcome, baseRes *Restored, baseRaw []byte) ([]float32, error) {
	nFields := len(m.Fields)
	fi := s % nFields
	out := make([]float32, m.Fields[fi].Elems())
	pos := 0
	for _, e := range m.Entries[s] {
		if e.Local() {
			o := &outcomes[e.Blob]
			if o.err != nil {
				return nil, o.err
			}
			copy(out[pos/4:], o.data)
			pos += e.RawLen
			continue
		}
		bs := e.BaseRank*nFields + e.BaseField
		var bb []byte
		var bf []float32
		bf = baseRes.Fields[e.BaseField].Data[e.BaseRank]
		if bs == s {
			bb = baseRaw[e.BaseRawOff : e.BaseRawOff+int64(e.RawLen)]
		} else {
			bb = f32le(bf[e.BaseRawOff/4 : (e.BaseRawOff+int64(e.RawLen))/4])
		}
		if dedup.Sum(bb) != e.Digest {
			return nil, fmt.Errorf("%w: base content digest mismatch at (rank %d, field %d, off %d)",
				ErrBase, e.BaseRank, e.BaseField, e.BaseRawOff)
		}
		copy(out[pos/4:], bf[e.BaseRawOff/4:(e.BaseRawOff+int64(e.RawLen))/4])
		pos += e.RawLen
	}
	return out, nil
}

// restoreBlob fetches, verifies and decodes one stored blob.
func restoreBlob(med Medium, m *Manifest, i int, opts RestoreOptions, keepRaw bool) blobOutcome {
	b := &m.Blobs[i]
	ci := ChunkInfo{Offset: b.Offset, Size: b.Size, CRC: b.CRC}
	co := readVerified(med, &ci, opts)
	o := blobOutcome{err: co.err, reread: co.reread, retries: co.retries, simSec: co.simSec}
	if o.err != nil {
		return o
	}
	decodeBlob(&o, b, co.raw)
	if keepRaw && o.err == nil {
		o.raw = co.raw
	}
	return o
}

// decodeBlob decompresses verified blob bytes and checks the length
// against the blob table, updating o in place.
func decodeBlob(o *blobOutcome, b *BlobInfo, blob []byte) {
	data, _, err := container.Unpack(blob, container.Options{Parallelism: 1})
	if err != nil {
		o.err = err
		return
	}
	if len(data) != b.RawLen/4 {
		o.err = fmt.Errorf("%w: blob decodes to %d elements, table says %d", ErrCorrupt, len(data), b.RawLen/4)
		return
	}
	o.data = data
}

// reconstructBlobs rebuilds failed blobs from the parity layer. The stripe
// member of (rank, field) is the concatenation of the blobs that stream
// owns, so reconstruction is region-wise: a field's stripe can be solved
// when the ranks with failed blobs number within the erasure budget, and
// each rebuilt blob must still match its table CRC before it is decoded.
func reconstructBlobs(med Medium, m *Manifest, outcomes []blobOutcome, opts RestoreOptions, rep *RestoreReport) {
	coder, err := ec.New(m.Ranks, m.ParityRanks)
	if err != nil {
		return // unreachable on a set that parsed; degrade gracefully
	}
	span := obs.Start("ckpt.reconstruct")
	defer span.End()
	nFields := len(m.Fields)
	owned := make([][]int, m.Ranks*nFields)
	for i := range m.Blobs {
		o := m.Blobs[i].owner
		owned[o] = append(owned[o], i)
	}
	for fi := 0; fi < nFields; fi++ {
		var failed []int // ranks with at least one failed owned blob
		for r := 0; r < m.Ranks; r++ {
			for _, bi := range owned[r*nFields+fi] {
				if outcomes[bi].err != nil {
					failed = append(failed, r)
					break
				}
			}
		}
		if len(failed) == 0 || len(failed) > m.ParityRanks {
			continue
		}
		stripeLen := int(m.ParityChunk(fi, 0).Size)
		shards := make([][]byte, m.Ranks+m.ParityRanks)
		avail := 0
		isFailed := make(map[int]bool, len(failed))
		for _, r := range failed {
			isFailed[r] = true
		}
		for r := 0; r < m.Ranks; r++ {
			if isFailed[r] {
				continue
			}
			region := make([]byte, stripeLen)
			off := 0
			for _, bi := range owned[r*nFields+fi] {
				copy(region[off:], outcomes[bi].raw)
				off += int(m.Blobs[bi].Size)
			}
			shards[r] = region
			avail++
		}
		for j := 0; j < m.ParityRanks && avail < m.Ranks; j++ {
			po := readVerified(med, m.ParityChunk(fi, j), opts)
			rep.SimReadSeconds += po.simSec
			rep.Retries += po.retries
			rep.ParityChunksRead++
			obs.Add("lcpio_ckpt_parity_chunks_read_total", 1)
			if po.err != nil {
				rep.ParityFailed = append(rep.ParityFailed,
					ChunkError{Rank: m.Ranks + j, Field: fi, Err: po.err})
				continue
			}
			shards[m.Ranks+j] = po.raw
			avail++
		}
		if avail < m.Ranks {
			continue
		}
		if err := coder.Reconstruct(shards, opts.Workers); err != nil {
			continue
		}
		for _, r := range failed {
			off := 0
			for _, bi := range owned[r*nFields+fi] {
				b := &m.Blobs[bi]
				blob := shards[r][off : off+int(b.Size)]
				off += int(b.Size)
				o := &outcomes[bi]
				if o.err == nil {
					continue
				}
				if Digest(blob) != b.CRC {
					o.err = fmt.Errorf("%w: reconstructed blob digest mismatch", ErrCorrupt)
					continue
				}
				o.err = nil
				decodeBlob(o, b, blob)
				if o.err == nil {
					o.reconstructed = true
					o.raw = blob
				}
			}
		}
	}
}

// parallelOver fans f across workers over [0, n).
func parallelOver(n, workers int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			next <- i
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}
