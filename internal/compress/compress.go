// Package compress is the one codec layer over the sz, zfp and squant
// implementations, plus the quality metrics (compression ratio, maximum
// absolute error, PSNR) the experiment harness reports.
//
// One table maps each codec name to a constructor for its reusable Handle;
// every entry point reads it. A Handle is one handle type around a codec's
// compressor and decompressor. A Codec from Lookup or LookupParallel is
// stateless: it records the name and worker count and builds a fresh Handle
// per call, so it is safe for concurrent use.
package compress

import (
	"fmt"
	"sort"

	"lcpio/internal/squant"
	"lcpio/internal/sz"
	"lcpio/internal/zfp"
)

// Codec is an error-bounded lossy compressor for float32 arrays.
type Codec interface {
	// Name returns the table name ("sz", "zfp" or "squant").
	Name() string
	// Compress encodes data (row-major, dims slowest first) so that every
	// reconstructed value differs from the original by at most eb.
	Compress(data []float32, dims []int, eb float64) ([]byte, error)
	// Decompress reverses Compress, returning data and dims.
	Decompress(buf []byte) ([]float32, []int, error)
}

// Handle is a reusable compression handle: repeated calls reuse all codec
// scratch (quantization codes, Huffman tables, bitstream and match buffers),
// reaching a zero-allocation steady state. Handles are NOT safe for
// concurrent use — create one per worker goroutine.
type Handle interface {
	Name() string
	Compress(data []float32, dims []int, eb float64) ([]byte, error)
	// CompressAppend appends the stream to dst, avoiding the output
	// allocation too when dst has capacity.
	CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error)
	Decompress(buf []byte) ([]float32, []int, error)
	Compress64(data []float64, dims []int, eb float64) ([]byte, error)
	CompressAppend64(dst []byte, data []float64, dims []int, eb float64) ([]byte, error)
	Decompress64(buf []byte) ([]float64, []int, error)
}

// codecs is the codec table: name → constructor of a Handle with the given
// intra-codec worker count (0 = all cores). Worker count affects execution
// only, never the compressed bytes.
var codecs = map[string]func(workers int) Handle{
	"sz": func(workers int) Handle {
		opts := sz.Defaults()
		opts.Parallelism = workers
		return &handle{"sz", sz.NewCompressor(opts), sz.NewDecompressor(opts)}
	},
	"zfp": func(workers int) Handle {
		opts := zfp.Options{Parallelism: workers}
		return &handle{"zfp", zfp.NewCompressor(opts), zfp.NewDecompressor(opts)}
	},
	// squant is a flat scalar quantizer with no parallel path and no
	// scratch worth keeping.
	"squant": func(int) Handle { return &handle{"squant", squantOneShot{}, squantOneShot{}} },
}

// constructor returns the table entry for name, or the one unknown-codec
// error every entry point reports.
func constructor(name string) (func(workers int) Handle, error) {
	build, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q (have %v)", name, Names())
	}
	return build, nil
}

// Names lists the registered codec names in sorted order.
func Names() []string {
	out := make([]string, 0, len(codecs))
	for n := range codecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewHandle returns a reusable Handle for the named codec with the given
// intra-codec worker count (0 = all cores).
func NewHandle(name string, workers int) (Handle, error) {
	build, err := constructor(name)
	if err != nil {
		return nil, err
	}
	return build(workers), nil
}

// Lookup returns the codec registered under name, running on all cores.
func Lookup(name string) (Codec, error) { return LookupParallel(name, 0) }

// LookupParallel returns a stateless Codec that runs the named codec with
// the given intra-codec worker count (0 = all cores).
func LookupParallel(name string, workers int) (Codec, error) {
	if _, err := constructor(name); err != nil {
		return nil, err
	}
	if workers == 0 {
		return allCores[name], nil
	}
	return codec{name, workers}, nil
}

// allCores holds each table entry's zero-worker Codec, built once so Lookup
// does not box a fresh value per call. The values are stateless, so sharing
// them is safe.
var allCores = func() map[string]Codec {
	m := make(map[string]Codec, len(codecs))
	for name := range codecs {
		m[name] = codec{name, 0}
	}
	return m
}()

// codec builds a fresh Handle per call, so one value may be shared across
// goroutines.
type codec struct {
	name    string
	workers int
}

func (c codec) Name() string { return c.name }
func (c codec) Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return codecs[c.name](c.workers).Compress(data, dims, eb)
}
func (c codec) Decompress(buf []byte) ([]float32, []int, error) {
	return codecs[c.name](c.workers).Decompress(buf)
}

// Compress64 compresses float64 data with the named codec. Every codec
// carries double precision end to end, so bounds below float32 resolution
// are honored.
func Compress64(codecName string, data []float64, dims []int, eb float64) ([]byte, error) {
	h, err := NewHandle(codecName, 0)
	if err != nil {
		return nil, err
	}
	return h.Compress64(data, dims, eb)
}

// Decompress64 reverses Compress64.
func Decompress64(codecName string, buf []byte) ([]float64, []int, error) {
	h, err := NewHandle(codecName, 0)
	if err != nil {
		return nil, nil, err
	}
	return h.Decompress64(buf)
}

// compressor and decompressor are the method sets sz and zfp share; handle
// embeds one of each to be a Handle.
type compressor interface {
	Compress(data []float32, dims []int, eb float64) ([]byte, error)
	CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error)
	Compress64(data []float64, dims []int, eb float64) ([]byte, error)
	CompressAppend64(dst []byte, data []float64, dims []int, eb float64) ([]byte, error)
}

type decompressor interface {
	Decompress(buf []byte) ([]float32, []int, error)
	Decompress64(buf []byte) ([]float64, []int, error)
}

// handle is the one Handle type.
type handle struct {
	name string
	compressor
	decompressor
}

func (h *handle) Name() string { return h.name }

// squantOneShot adapts squant's one-shot functions to the compressor and
// decompressor method sets.
type squantOneShot struct{}

func (squantOneShot) Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return squant.Compress(data, dims, eb)
}
func (squantOneShot) CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	buf, err := squant.Compress(data, dims, eb)
	if err != nil {
		return nil, err
	}
	return append(dst, buf...), nil
}
func (squantOneShot) Compress64(data []float64, dims []int, eb float64) ([]byte, error) {
	return squant.Compress64(data, dims, eb)
}
func (squantOneShot) CompressAppend64(dst []byte, data []float64, dims []int, eb float64) ([]byte, error) {
	buf, err := squant.Compress64(data, dims, eb)
	if err != nil {
		return nil, err
	}
	return append(dst, buf...), nil
}
func (squantOneShot) Decompress(buf []byte) ([]float32, []int, error) {
	return squant.Decompress(buf)
}
func (squantOneShot) Decompress64(buf []byte) ([]float64, []int, error) {
	return squant.Decompress64(buf)
}
