// Command lcbench is lcpio's end-to-end benchmark. It drives the paths
// users run through the public APIs of ckpt, svc and obs — checkpoint
// write and restore on a file, and dump/restore through the lcpiod daemon
// over TCP — from inputs it generates from --seed, checks every output,
// and prints one JSON result as its last line.
//
// With --trace 0 it reports end-to-end metrics from untraced closed-loop
// ops run for --seconds. With --trace 1 it runs the same ops twice, the
// second time with obs telemetry and its own timing wrappers around every
// medium and socket, and reports per-layer metrics plus a layer table.
//
//	bash lcbench/run.sh --workload ckpt_sz_file --seed 1 --seconds 30 --trace 0
//
// It runs from the repository root, which run.sh makes the working
// directory; media files go under --workdir there.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcpio/internal/ckpt"
	"lcpio/internal/obs"
)

// env is what a workload's set-up receives.
type env struct {
	seed   int64
	dir    string  // media files go here
	probes *probes // timing wrappers; nil on untraced runs
	// fault, when set, wraps every medium the measured ops use, beneath
	// the timing wrapper; the teeth tests use it to damage what the
	// program stores.
	fault func(ckpt.Medium) ckpt.Medium
}

func (e env) medium(m ckpt.Medium) ckpt.Medium {
	if e.fault != nil {
		m = e.fault(m)
	}
	return e.probes.wrapMedium(m)
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	nclients() int
	// step runs client c's i-th write op and its restore op, checks their
	// outputs, and records both.
	step(c, i int, rec *recorder)
	// fingerprint records the output bytes and modeled values of the first
	// input, outside the measured ops.
	fingerprint() (map[string]any, error)
	close() error
}

type workload struct {
	name, why string
	setup     func(env) (instance, error)
	// Each half of a traced run makes tracePairs × --seconds / 2
	// write+restore pairs per client: a fixed amount of work, so per-layer
	// counts repeat exactly and totals compare across commits.
	tracePairs float64
}

var workloads = []workload{
	{"ckpt_sz_file", "codec-heavy: sz predict/quantize, Huffman and lossless stages take most of ckpt.Write CPU; medium I/O is small",
		setupCkptSZ, 5},
	{"ckpt_zfp_delta", "same layers used differently: zfp with parity and dedup deltas against a base, skipping sz entirely",
		setupCkptZFPDelta, 3},
	{"svc_tcp", "the daemon path: framing, sockets, admission, extents, inflate-verify and advise, with two tenants contending",
		setupSvc, 8},
}

const (
	setupReps = 5   // set-ups per untraced run; setup_s is their median
	minPairs  = 100 // so every p90 has at least 10 samples beyond it
	maxWall   = 120 * time.Second
)

const flushPolicy = "ckpt.FileMedium in a temp dir under the checkout, no fsync: I/O times are the OS page cache, not a device"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("lcbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Int("seconds", 10, "seconds of measured ops")
	trace := fset.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := fset.String("workdir", filepath.Join(".bench_build", "tmp"), "directory for media files")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "lcbench: need --workload of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lcbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, wl.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "lcbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{wl: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: dir, out: stdout}
	var res result
	if *trace == 1 {
		res, err = b.traced(float64(*seconds))
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "lcbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "lcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// bench runs one workload once.
type bench struct {
	wl   workload
	seed int64
	dur  time.Duration
	dir  string
	out  io.Writer

	inst instance
	next []int // each client's next op index, continued across phases
}

// setup builds the workload reps times from scratch, each in its own
// directory, and keeps the last instance; it returns each set-up's wall
// time.
func (b *bench) setup(reps int, p *probes) ([]float64, error) {
	var times []float64
	for k := 0; k < reps; k++ {
		if b.inst != nil {
			if err := b.inst.close(); err != nil {
				return nil, err
			}
			b.inst = nil
		}
		sub := filepath.Join(b.dir, fmt.Sprintf("setup-%d", k))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // each set-up starts without the last one's inputs
		t0 := time.Now()
		inst, err := b.wl.setup(env{seed: b.seed, dir: sub, probes: p})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b.inst = inst
	}
	b.next = make([]int, b.inst.nclients())
	return times, nil
}

// runPhase runs every client's closed loop: a client issues its next op
// only after the last one returned. perClient > 0 runs exactly that many
// write+restore pairs per client; otherwise the phase runs until b.dur has
// passed and minPairs pairs are done, or maxWall.
func (b *bench) runPhase(rec *recorder, perClient int) time.Duration {
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range b.next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				if perClient > 0 && n >= perClient {
					return
				}
				if el := time.Since(start); perClient == 0 &&
					(el >= maxWall || (el >= b.dur && done.Load() >= minPairs)) {
					return
				}
				b.inst.step(c, b.next[c], rec)
				b.next[c]++
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// record prints the run's provenance, output fingerprint and sample counts
// as one JSON line ahead of the result.
func (b *bench) record(trace int, fp map[string]any, rec *recorder) error {
	rec.mu.Lock()
	samples := map[string]int{"write_ops": len(rec.writes), "restore_ops": len(rec.restores),
		"attempted": rec.attempted, "failed": rec.failed}
	var firstErr string
	if rec.firstErr != nil {
		firstErr = rec.firstErr.Error()
	}
	rec.mu.Unlock()
	line, err := json.Marshal(map[string]any{
		"workload": b.wl.name, "why": b.wl.why, "trace": trace,
		"provenance": provenance(b.seed), "fingerprint": fp, "samples": samples,
		"failed_frac": rec.failedFrac(), "first_error": firstErr,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(b.out, string(line))
	return err
}

// fingerprintInto runs the instance's fingerprint; a failed output check
// there counts as a failed op.
func (b *bench) fingerprintInto(rec *recorder) map[string]any {
	fp, err := b.inst.fingerprint()
	if err != nil {
		rec.fail(fmt.Errorf("fingerprint: %w", err))
	}
	return fp
}

// endToEnd measures the untraced workload for --seconds.
func (b *bench) endToEnd() (result, error) {
	setups, err := b.setup(setupReps, nil)
	if err != nil {
		return result{}, err
	}
	defer b.inst.close()
	rec := newRecorder()
	fp := b.fingerprintInto(rec)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	b.runPhase(rec, 0)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	if err := b.record(0, fp, rec); err != nil {
		return result{}, err
	}
	return e2eResult(rec, setups, cpu, float64(ms1.TotalAlloc-ms0.TotalAlloc), peakRSSMB()), nil
}

// e2eResult turns a measured phase into the end-to-end metrics. A p90
// without enough samples beyond it makes the result incorrect.
func e2eResult(rec *recorder, setups []float64, cpu, alloc, rssMB float64) result {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	res := result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed,
		Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	pct := func(name string, xs []float64, p float64) {
		v, err := percentile(xs, p)
		if err != nil {
			res.Correct = false
		}
		put(name, v*1e3, "ms")
	}
	processed := float64(rec.writeRaw + rec.restoreRaw)
	put("setup_s", median(setups), "s")
	put("write_mbps", ratio(float64(rec.writeRaw)/1e6, sum(rec.writes)), "MB/s")
	put("restore_mbps", ratio(float64(rec.restoreRaw)/1e6, sum(rec.restores)), "MB/s")
	pct("write_p50_ms", rec.writes, 50)
	pct("write_p90_ms", rec.writes, 90)
	pct("restore_p50_ms", rec.restores, 50)
	pct("restore_p90_ms", rec.restores, 90)
	put("cpu_s_per_gb", ratio(cpu-rec.checkCPU, processed/1e9), "s/GB")
	put("stored_bytes_per_raw_byte", ratio(float64(rec.stored), float64(rec.writeRaw)), "B/B")
	put("alloc_bytes_per_raw_byte", ratio(alloc, processed), "B/B")
	put("peak_rss_mb", rssMB, "MB")
	return res
}

// traced runs a fixed number of ops untraced, then the same number traced,
// and reports per-layer metrics from the traced half.
func (b *bench) traced(seconds float64) (result, error) {
	p := &probes{}
	if _, err := b.setup(1, p); err != nil {
		return result{}, err
	}
	defer b.inst.close()
	pairs := int(math.Ceil(b.wl.tracePairs * seconds / 2))
	plain := newRecorder()
	fp := b.fingerprintInto(plain)
	plainWall := b.runPhase(plain, pairs)

	rec := newRecorder()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reg := obs.NewRegistry()
	p.on.Store(true)
	obs.Use(reg)
	cpu0 := cpuSeconds()
	wall := b.runPhase(rec, pairs)
	cpu := cpuSeconds() - cpu0
	obs.Use(nil)
	p.on.Store(false)
	runtime.ReadMemStats(&ms1)

	// Failures of either half count; the layer sums stay the traced half's.
	rec.attempted += plain.attempted
	rec.failed += plain.failed
	if rec.firstErr == nil {
		rec.firstErr = plain.firstErr
	}
	overhead := ratio(ratio(wall.Seconds(), float64(rec.writeRaw+rec.restoreRaw)),
		ratio(plainWall.Seconds(), float64(plain.writeRaw+plain.restoreRaw))) - 1
	gc := gcStats{cycles: float64(ms1.NumGC - ms0.NumGC), pauseS: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9}
	m, table := layerMetrics(reg.Snapshot().SpanTotals, rec, p, cpu, gc, overhead)

	if err := b.record(1, fp, rec); err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "layer table (%s, traced half: %d pairs per client, %.3f s wall)\n", b.wl.name, pairs, wall.Seconds())
	fmt.Fprint(b.out, table)
	return result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// provenance names the host, toolchain and source the numbers came from.
func provenance(seed int64) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			commit += "+dirty"
		}
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"source_sha": sourceDigest("."),
		"seed":       seed,
		"flush":      flushPolicy,
		"workers":    workers,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden directories), naming the code measured where no git commit is
// available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
