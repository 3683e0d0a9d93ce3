package ckpt

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"lcpio/internal/compress"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
	"lcpio/internal/retry"
	"lcpio/internal/stream"
)

// Field is one input field of a checkpoint set: every rank contributes an
// array of the same shape, compressed under the same absolute error bound.
type Field struct {
	Name       string
	Dims       []int
	ErrorBound float64
	// Data is indexed by rank.
	Data [][]float32
}

// Set is the input to Write.
type Set struct {
	Name  string
	Meta  string
	Codec string
	Ranks int
	// Fields must each carry Ranks data arrays matching Dims.
	Fields []Field
}

func (s Set) validate() error {
	if s.Ranks <= 0 || s.Ranks > maxRanks {
		return fmt.Errorf("ckpt: rank count %d outside [1,%d]", s.Ranks, maxRanks)
	}
	if len(s.Fields) == 0 || len(s.Fields) > maxFields {
		return fmt.Errorf("ckpt: field count %d outside [1,%d]", len(s.Fields), maxFields)
	}
	if s.Ranks*len(s.Fields) > maxChunks {
		return fmt.Errorf("ckpt: %d chunks exceed cap %d", s.Ranks*len(s.Fields), maxChunks)
	}
	if s.Codec == "" {
		return errors.New("ckpt: empty codec")
	}
	if _, err := compress.Lookup(s.Codec); err != nil {
		return err
	}
	if len(s.Name) > maxNameLen || len(s.Meta) > maxMetaLen {
		return errors.New("ckpt: set name or meta too long")
	}
	for fi, f := range s.Fields {
		if f.Name == "" || len(f.Name) > maxNameLen {
			return fmt.Errorf("ckpt: field %d has invalid name %q", fi, f.Name)
		}
		if len(f.Dims) == 0 || len(f.Dims) > maxDims {
			return fmt.Errorf("ckpt: field %q has %d dims", f.Name, len(f.Dims))
		}
		elems := 1
		for _, d := range f.Dims {
			if d <= 0 {
				return fmt.Errorf("ckpt: field %q has non-positive dim", f.Name)
			}
			elems *= d
		}
		if !(f.ErrorBound > 0) || math.IsInf(f.ErrorBound, 0) {
			return fmt.Errorf("ckpt: field %q has invalid error bound %v", f.Name, f.ErrorBound)
		}
		if len(f.Data) != s.Ranks {
			return fmt.Errorf("ckpt: field %q has %d rank arrays, want %d", f.Name, len(f.Data), s.Ranks)
		}
		for r, d := range f.Data {
			if len(d) != elems {
				return fmt.Errorf("ckpt: field %q rank %d has %d elements, dims %v imply %d",
					f.Name, r, len(d), f.Dims, elems)
			}
		}
	}
	return nil
}

// RetryPolicy caps the writer's retries of transient medium faults. It is a
// thin wrapper over the shared retry.Policy helper, which the nfs pipeline's
// retransmit waits price through too.
type RetryPolicy struct {
	// MaxAttempts per chunk (default 5).
	MaxAttempts int
	// BaseBackoff is the first retry's simulated delay (default 5 ms);
	// subsequent retries double it up to MaxBackoff (default 500 ms).
	BaseBackoff float64
	MaxBackoff  float64
}

// retryDefaults is the medium-fault backoff shape.
var retryDefaults = retry.Policy{MaxAttempts: 5, Base: 5e-3, Max: 500e-3}

// policy maps onto the shared helper, filling defaults.
func (r RetryPolicy) policy() retry.Policy {
	return retry.Policy{MaxAttempts: r.MaxAttempts, Base: r.BaseBackoff, Max: r.MaxBackoff}.
		Normalized(retryDefaults)
}

func (r RetryPolicy) normalized() RetryPolicy {
	p := r.policy()
	return RetryPolicy{MaxAttempts: p.MaxAttempts, BaseBackoff: p.Base, MaxBackoff: p.Max}
}

// backoff returns the capped exponential delay before retry `attempt`
// (1-based: the delay after the attempt'th failure).
func (r RetryPolicy) backoff(attempt int) float64 {
	return r.policy().Backoff(attempt)
}

// WriteOptions tunes the pipelined writer.
type WriteOptions struct {
	// Workers is the number of parallel chunk compressors (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds chunks dispatched but not yet drained to the
	// medium — the pipeline's backpressure window (0 = 2×Workers, floor
	// Workers+1). Compression stalls when the writer falls this far
	// behind.
	QueueDepth int
	// ChunkElems is the container's per-slab target (0 = container
	// default).
	ChunkElems int
	// Mount is the simulated NFS write path (zero value = DefaultMount);
	// its FaultConfig injects wire-level faults.
	Mount nfs.Mount
	// Retry caps medium-fault retries.
	Retry RetryPolicy
	// ParityRanks appends this many Reed–Solomon parity shards to every
	// field's rank stripe (format v2), so Restore can reconstruct up to
	// this many lost or corrupt ranks per field instead of reporting them.
	// 0 (the default) writes format v1, byte-identical to before.
	ParityRanks int
	// Base switches Write to the delta path (format v3): only content the
	// base chain lacks is stored; unchanged chunks become by-reference
	// manifest entries (see OpenBase). nil writes a full set as before.
	// On a delta set the parity layer covers only locally-stored blobs.
	Base *Base
	// Advisor, when non-nil, is consulted once before the pipeline starts
	// and may retune codec, error bound, workers and parity for this set
	// (the online controller in internal/advisor implements it). A nil
	// advisor — or a zero tuning — leaves the write exactly as configured.
	Advisor WriteAdvisor
}

// WriteAdvisor retunes a write before it starts. Implementations get the
// set about to be written and the options as passed; they must not mutate
// either.
type WriteAdvisor interface {
	AdviseWrite(set *Set, opts WriteOptions) (WriteTuning, error)
}

// WriteTuning is the subset of write knobs an advisor may override. The
// zero value changes nothing.
type WriteTuning struct {
	// Workers overrides the parallel compressor count when > 0.
	Workers int
	// Codec replaces the set's codec when non-empty.
	Codec string
	// RelEB, when > 0, recomputes every field's absolute error bound as
	// this range-relative bound over the field's rank-0 array.
	RelEB float64
	// ParityRanks replaces WriteOptions.ParityRanks when SetParity is true
	// (the flag lets an advisor force parity OFF, which a plain zero could
	// not express).
	SetParity   bool
	ParityRanks int
}

// applyTuning folds an advisor's overrides into the set and options,
// revalidating anything the tuning touched.
func applyTuning(set Set, opts WriteOptions, tun WriteTuning) (Set, WriteOptions, error) {
	if tun.Workers > 0 {
		opts.Workers = tun.Workers
		opts.QueueDepth = 0 // re-derive the backpressure window
	}
	if tun.SetParity {
		opts.ParityRanks = tun.ParityRanks
	}
	if tun.Codec != "" && tun.Codec != set.Codec {
		if _, err := compress.Lookup(tun.Codec); err != nil {
			return set, opts, fmt.Errorf("ckpt: advisor codec: %w", err)
		}
		set.Codec = tun.Codec
	}
	if tun.RelEB > 0 {
		if math.IsInf(tun.RelEB, 0) {
			return set, opts, fmt.Errorf("ckpt: advisor relative bound %v", tun.RelEB)
		}
		fields := make([]Field, len(set.Fields))
		copy(fields, set.Fields)
		for i := range fields {
			if len(fields[i].Data) == 0 {
				continue
			}
			eb := compress.AbsBoundFromRelative(tun.RelEB, fields[i].Data[0])
			if eb > 0 {
				fields[i].ErrorBound = eb
			}
		}
		set.Fields = fields
	}
	return set, opts, nil
}

func (o WriteOptions) normalized() WriteOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.QueueDepth <= o.Workers {
		o.QueueDepth = o.Workers + 1
	}
	o.Retry = o.Retry.normalized()
	return o
}

// WriteResult reports what one Write produced and measured.
type WriteResult struct {
	Manifest *Manifest
	// FileBytes is the total set size on the medium; PayloadBytes the
	// compressed chunk bytes; RawBytes the uncompressed input.
	FileBytes    int64
	RawBytes     int64
	PayloadBytes int64
	Chunks       int
	// ParityRanks and ParityBytes report the erasure-coding layer: m
	// parity shards per field stripe and their total on-medium size
	// (included in FileBytes, excluded from PayloadBytes).
	ParityRanks int
	ParityBytes int64
	// Retries counts chunk write attempts beyond the first (transient
	// medium faults); WireRetransmits and WireShortWrites aggregate the
	// simulated NFS pipeline's injected faults.
	Retries         int64
	WireRetransmits int64
	WireShortWrites int64
	// MeanRelEB is the payload-weighted mean range-relative error bound,
	// feeding the machine package's cycle model.
	MeanRelEB float64
	// ECEncodeSeconds is the real wall time spent folding chunks into the
	// parity accumulators (0 without parity).
	ECEncodeSeconds float64
	// Delta-write statistics (format v3; zero on full sets). BaseName names
	// the base set; Blobs counts stored chunks; ChunksLocal / ChunksRef /
	// ChunksShared split the content-defined chunks into newly stored,
	// satisfied by a base reference, and satisfied by intra-set sharing.
	// LocalRawBytes / RefRawBytes are the corresponding raw byte splits.
	BaseName      string
	Blobs         int
	ChunksLocal   int
	ChunksRef     int
	ChunksShared  int
	LocalRawBytes int64
	RefRawBytes   int64
	// CompressWallSeconds is the real parallel-compression wall time.
	// SimWriteSeconds is the simulated NFS busy time of all chunk + manifest
	// transfers including retry backoff. SimSerialSeconds composes the two
	// with no overlap (compress everything, then write everything);
	// SimPipelinedSeconds replays the actual schedule — chunks drain while
	// later chunks compress — so the difference is the measured overlap win.
	CompressWallSeconds float64
	SimWriteSeconds     float64
	SimSerialSeconds    float64
	SimPipelinedSeconds float64
}

// Ratio is the overall compression ratio of the payload.
func (r *WriteResult) Ratio() float64 {
	if r.PayloadBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.PayloadBytes)
}

// DedupRatio is the fraction of the set's raw bytes NOT stored as new
// payload — satisfied by base references or intra-set sharing. 0 on full
// sets.
func (r *WriteResult) DedupRatio() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return float64(r.RefRawBytes) / float64(r.RawBytes)
}

// localRatio is the measured compression ratio of this delta set's locally
// stored content: raw bytes of new blobs over their compressed size. 0 when
// the set stored nothing new (complete dedup).
func (r *WriteResult) localRatio() float64 {
	if r.PayloadBytes == 0 {
		return 0
	}
	return float64(r.LocalRawBytes) / float64(r.PayloadBytes)
}

// ParityOverhead is the parity layer's share of compressed payload bytes —
// the storage (and wire) premium paid for reconstructability.
func (r *WriteResult) ParityOverhead() float64 {
	if r.PayloadBytes == 0 {
		return 0
	}
	return float64(r.ParityBytes) / float64(r.PayloadBytes)
}

// setSchedules composes the serial and pipelined write schedules from the
// drain: compressWall is when the last chunk finished compressing and
// writerClock when the writer finished draining. The writer never starts a
// transfer before its chunk is compressed, so its clock is bounded by
// compressWall plus every transfer; the bound is applied exactly, because
// the two sums add the same seconds in different orders and can differ in
// the last bit. The parity fold is writer-side CPU work; it extends both
// schedules equally (the serial schedule would run it after compressing).
func (r *WriteResult) setSchedules(compressWall, writerClock float64) {
	r.CompressWallSeconds = compressWall
	r.SimSerialSeconds = compressWall + r.SimWriteSeconds + r.ECEncodeSeconds
	r.SimPipelinedSeconds = math.Min(writerClock+r.ECEncodeSeconds, r.SimSerialSeconds)
}

// OverlapMargin is the fraction of the serial schedule the pipeline saved:
// (serial − pipelined) / serial.
func (r *WriteResult) OverlapMargin() float64 {
	if r.SimSerialSeconds <= 0 {
		return 0
	}
	return (r.SimSerialSeconds - r.SimPipelinedSeconds) / r.SimSerialSeconds
}

// Write packages the set onto the medium through the pipelined scheduler:
// a bounded work queue feeds Workers parallel compressors (one reusable
// container.Packer each), while the caller's goroutine drains completed
// chunks to the medium in logical order — so compression of chunk k+1
// overlaps the wire time of chunk k, and the manifest is byte-identical at
// any worker count. Transient medium faults are retried with capped
// exponential backoff; wire faults come from the mount's own FaultConfig.
// Full and delta sets (opts.Base) run the same set pipeline (writeSet on
// the shared stream.Engine); they differ only in what their producers emit
// and how their drain commits it.
func Write(med Medium, set Set, opts WriteOptions) (*WriteResult, error) {
	if err := set.validate(); err != nil {
		return nil, err
	}
	if opts.Advisor != nil {
		tun, err := opts.Advisor.AdviseWrite(&set, opts)
		if err != nil {
			return nil, fmt.Errorf("ckpt: advisor: %w", err)
		}
		if set, opts, err = applyTuning(set, opts, tun); err != nil {
			return nil, err
		}
		if err := set.validate(); err != nil {
			return nil, err
		}
	}
	opts = opts.normalized()
	if opts.Base != nil {
		return writeDelta(med, set, opts)
	}
	span := obs.Start("ckpt.write")
	defer span.End()
	m := newManifest(&set, opts)
	m.Chunks = make([]ChunkInfo, set.Ranks*len(set.Fields))
	return writeSet(med, &set, opts, m, stream.Options{Name: "ckpt.write"},
		ChunkProducer(&set, opts.ChunkElems), func(w *setWriter, d stream.Item[[]byte]) error {
			off, err := w.put(d.Val, d.AvailAt)
			if err != nil {
				return fmt.Errorf("ckpt: chunk %d: %w", d.Idx, err)
			}
			c := &m.Chunks[d.Idx]
			c.Offset, c.Size, c.CRC = off, int64(len(d.Val)), Digest(d.Val)
			return w.fold(d.Idx, d.Val)
		})
}

// writeChunk drains one blob to the medium with capped exponential backoff
// on transient faults, resuming after short writes, and returns the
// simulated NFS time of the transfer (retries add backoff plus the resent
// bytes' wire time).
func writeChunk(med Medium, blob []byte, off int64, opts WriteOptions, res *WriteResult) (float64, error) {
	tr := opts.Mount.Write(int64(len(blob)))
	res.WireRetransmits += tr.Retransmits
	res.WireShortWrites += tr.ShortWrites
	simSec := tr.NetworkSeconds
	wrote := 0
	for attempt := 1; ; attempt++ {
		n, err := med.WriteAt(blob[wrote:], off+int64(wrote))
		if n > 0 {
			wrote += n
		}
		if err == nil && wrote == len(blob) {
			return simSec, nil
		}
		if err == nil {
			err = fmt.Errorf("%w: short write (%d of %d bytes)", ErrTransient, wrote, len(blob))
		}
		if attempt >= opts.Retry.MaxAttempts {
			return simSec, fmt.Errorf("giving up after %d attempts: %w", attempt, err)
		}
		res.Retries++
		obs.Add("lcpio_ckpt_retries_total", 1)
		backoff := opts.Retry.backoff(attempt)
		// The resent tail costs wire time again, after the backoff.
		rt := opts.Mount.Write(int64(len(blob) - wrote))
		res.WireRetransmits += rt.Retransmits
		res.WireShortWrites += rt.ShortWrites
		simSec += backoff + rt.NetworkSeconds
	}
}

// MeanRelEB returns the raw-byte-weighted mean of each field's
// range-relative error bound — the knob the machine package's cycle model
// takes. It is data-dependent (field value ranges), so a client dumping a
// set over the checkpoint service computes it locally and ships the scalar;
// the daemon cannot derive it from geometry alone.
func (s Set) MeanRelEB() float64 { return meanRelEB(s) }

// meanRelEB is the raw-byte-weighted mean of each field's range-relative
// error bound — the knob the machine package's cycle model takes.
func meanRelEB(set Set) float64 {
	var wsum, sum float64
	for _, f := range set.Fields {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, rank := range f.Data {
			for _, v := range rank {
				fv := float64(v)
				if fv < lo {
					lo = fv
				}
				if fv > hi {
					hi = fv
				}
			}
		}
		rng := hi - lo
		if !(rng > 0) {
			rng = 1
		}
		w := float64(len(f.Data)) * float64(len(f.Data[0]))
		wsum += w
		sum += w * f.ErrorBound / rng
	}
	if wsum == 0 {
		return 1e-3
	}
	return sum / wsum
}
