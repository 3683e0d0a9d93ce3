package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"lcpio/internal/ckpt"
	"lcpio/internal/dedup"
	"lcpio/internal/fpdata"
)

// workers is the compressor and reader count of every ckpt call; with
// GOMAXPROCS left alone it matches this benchmark's 2-CPU reference host.
const workers = 2

// relEB is the range-relative error bound of every workload.
const relEB = 1e-4

// isabelSet generates the six Hurricane-ISABEL fields at dims for ranks
// ranks; rank r of every field is seeded seed+r. Each field's absolute
// bound is relEB times its rank-0 value range.
func isabelSet(name, codec string, ranks int, dims []int, seed int64) ckpt.Set {
	set := ckpt.Set{Name: name, Meta: fmt.Sprintf("lcbench seed=%d", seed), Codec: codec, Ranks: ranks}
	for _, spec := range fpdata.IsabelFields() {
		spec.Dims = dims
		f := ckpt.Field{Name: spec.Field, Dims: dims}
		for r := 0; r < ranks; r++ {
			gen := fpdata.Generate(spec, 1, seed+int64(r))
			if r == 0 {
				lo, hi := gen.Range()
				f.ErrorBound = relEB * math.Max(float64(hi-lo), 1e-30)
			}
			f.Data = append(f.Data, gen.Data)
		}
		set.Fields = append(set.Fields, f)
	}
	return set
}

// churned copies set and moves one contiguous region of frac of every
// (rank, field) array by ten error bounds, at offsets drawn from rng, so a
// delta write must store that region anew.
func churned(set ckpt.Set, name string, frac float64, rng *rand.Rand) ckpt.Set {
	out := set
	out.Name = name
	out.Fields = make([]ckpt.Field, len(set.Fields))
	for fi, f := range set.Fields {
		f.Data = make([][]float32, len(set.Fields[fi].Data))
		for r, src := range set.Fields[fi].Data {
			d := append([]float32(nil), src...)
			n := int(frac * float64(len(d)))
			start := rng.Intn(len(d) - n + 1)
			for i := start; i < start+n; i++ {
				d[i] += float32(10 * f.ErrorBound)
			}
			f.Data[r] = d
		}
		out.Fields[fi] = f
	}
	return out
}

// rawBytes is the uncompressed size of a set.
func rawBytes(set ckpt.Set) int64 {
	var n int64
	for _, f := range set.Fields {
		for _, d := range f.Data {
			n += int64(len(d)) * 4
		}
	}
	return n
}

// checkRestored verifies every restored value lies within its field's
// absolute error bound of the input.
func checkRestored(set ckpt.Set, got *ckpt.Restored) error {
	if len(got.Fields) != len(set.Fields) {
		return fmt.Errorf("restored %d fields, wrote %d", len(got.Fields), len(set.Fields))
	}
	for _, f := range set.Fields {
		rf := got.Field(f.Name)
		if rf == nil || len(rf.Data) != len(f.Data) {
			return fmt.Errorf("field %q: ranks missing from restore", f.Name)
		}
		for r, want := range f.Data {
			have := rf.Data[r]
			if len(have) != len(want) {
				return fmt.Errorf("field %q rank %d: %d values, want %d", f.Name, r, len(have), len(want))
			}
			for i, w := range want {
				if d := float64(have[i]) - float64(w); !(d <= f.ErrorBound && d >= -f.ErrorBound) {
					return fmt.Errorf("field %q rank %d value %d: error %g exceeds bound %g",
						f.Name, r, i, d, f.ErrorBound)
				}
			}
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ckptRun drives ckpt.Write and ckpt.Restore on FileMedium files: full sets,
// or delta sets against a base written at set-up.
type ckptRun struct {
	env     env
	sets    []ckpt.Set // the inputs write ops cycle through
	parity  int
	base    *ckpt.FileMedium // delta base; nil for full sets
	baseMed ckpt.Medium
}

// setupCkptSZ generates two 6.3 MB sets for full sz writes.
func setupCkptSZ(e env) (instance, error) {
	dims := []int{32, 64, 64} // 2^17 elements per rank and field
	w := &ckptRun{env: e}
	for k := int64(0); k < 2; k++ {
		w.sets = append(w.sets, isabelSet(fmt.Sprintf("sz-%d", k), "sz", 2, dims, e.seed+1000*k))
	}
	return w, nil
}

// setupCkptZFPDelta generates a base set, writes it with one parity rank,
// and derives four fresh sets from it, each with a different 10% region
// churned.
func setupCkptZFPDelta(e env) (instance, error) {
	dims := []int{32, 64, 64}
	base := isabelSet("base", "zfp", 2, dims, e.seed)
	w := &ckptRun{env: e, parity: 1}
	rng := rand.New(rand.NewSource(e.seed))
	for k := 0; k < 4; k++ {
		w.sets = append(w.sets, churned(base, fmt.Sprintf("delta-%d", k), 0.10, rng))
	}
	path := filepath.Join(e.dir, "base.lcpt")
	if _, err := writeFile(path, base, ckpt.WriteOptions{Workers: workers, ParityRanks: 1}, e.probes.wrapMedium); err != nil {
		return nil, fmt.Errorf("writing delta base: %w", err)
	}
	fm, err := ckpt.OpenFileMedium(path)
	if err != nil {
		return nil, err
	}
	w.base, w.baseMed = fm, e.medium(fm)
	return w, nil
}

// writeFile creates path and writes set onto it.
func writeFile(path string, set ckpt.Set, opts ckpt.WriteOptions, wrap func(ckpt.Medium) ckpt.Medium) (*ckpt.WriteResult, error) {
	fm, err := ckpt.CreateFileMedium(path)
	if err != nil {
		return nil, err
	}
	res, err := ckpt.Write(wrap(fm), set, opts)
	if cerr := fm.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

func (w *ckptRun) nclients() int { return 1 }

func (w *ckptRun) writeOpts() ckpt.WriteOptions {
	return ckpt.WriteOptions{Workers: workers, ParityRanks: w.parity}
}

func (w *ckptRun) restoreOpts() ckpt.RestoreOptions {
	opts := ckpt.RestoreOptions{Workers: workers}
	if w.base != nil {
		opts.Bases = []ckpt.Medium{w.baseMed}
	}
	return opts
}

// step writes the i-th input to a fresh file, restores it, and checks the
// restored values against the input.
func (w *ckptRun) step(_, i int, rec *recorder) {
	set := w.sets[i%len(w.sets)]
	path := filepath.Join(w.env.dir, "set.lcpt")

	t0 := time.Now()
	opts := w.writeOpts()
	if w.base != nil {
		b, err := ckpt.OpenBase(w.baseMed, nil, dedup.Params{}, ckpt.RestoreOptions{Workers: workers})
		if err != nil {
			rec.fail(fmt.Errorf("open base: %w", err))
			return
		}
		opts.Base = b
		rec.add("ckpt.open_base_s", time.Since(t0).Seconds())
	}
	tw := time.Now()
	res, err := writeFile(path, set, opts, w.env.medium)
	tEnd := time.Now()
	if err != nil {
		rec.fail(fmt.Errorf("write: %w", err))
		return
	}
	raw := rawBytes(set)
	if res.RawBytes != raw {
		rec.fail(fmt.Errorf("write reports %d raw bytes, set has %d", res.RawBytes, raw))
		return
	}
	rec.write(tEnd.Sub(t0), raw, res.FileBytes)
	rec.add("ckpt.write_s", tEnd.Sub(tw).Seconds())
	rec.add("ckpt.compress_wall_s", res.CompressWallSeconds)
	rec.add("ckpt.chunks", float64(res.Chunks))
	rec.add("ckpt.retries", float64(res.Retries))
	rec.add("dedup.chunks_local", float64(res.ChunksLocal))
	rec.add("dedup.chunks_ref", float64(res.ChunksRef))
	rec.add("dedup.chunks_shared", float64(res.ChunksShared))

	t1 := time.Now()
	fm, err := ckpt.OpenFileMedium(path)
	if err != nil {
		rec.fail(fmt.Errorf("open: %w", err))
		return
	}
	got, err := ckpt.Restore(w.env.medium(fm), w.restoreOpts())
	fm.Close()
	d := time.Since(t1)
	if err != nil {
		rec.fail(fmt.Errorf("restore: %w", err))
		return
	}
	c0 := cpuSeconds()
	err = checkRestored(set, got)
	rec.excludeCPU(cpuSeconds() - c0)
	if err != nil {
		rec.fail(fmt.Errorf("restore of %s: %w", set.Name, err))
		return
	}
	rec.restore(d, raw)
	rec.add("ckpt.restore_s", d.Seconds())
	rec.add("ckpt.retries", float64(got.Report.Retries))
}

// fingerprint writes the first input to memory and reports the CRC32C of
// the stored bytes; on a delta run, also of the base file.
func (w *ckptRun) fingerprint() (map[string]any, error) {
	opts := w.writeOpts()
	fp := map[string]any{}
	if w.base != nil {
		b, err := ckpt.OpenBase(w.base, nil, dedup.Params{}, ckpt.RestoreOptions{Workers: workers})
		if err != nil {
			return nil, err
		}
		opts.Base = b
		buf := make([]byte, w.base.Size())
		if _, err := w.base.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		fp["base_crc32c"] = fmt.Sprintf("%08x", crc32.Checksum(buf, castagnoli))
	}
	mem := ckpt.NewMemMedium()
	if _, err := ckpt.Write(mem, w.sets[0], opts); err != nil {
		return nil, err
	}
	fp["set_crc32c"] = fmt.Sprintf("%08x", crc32.Checksum(mem.Bytes(), castagnoli))
	fp["set_bytes"] = mem.Size()
	return fp, nil
}

func (w *ckptRun) close() error {
	if w.base != nil {
		return w.base.Close()
	}
	return nil
}
