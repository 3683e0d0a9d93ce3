package compress

import (
	"fmt"
	"math"
)

// Result summarizes one compression run for reporting.
type Result struct {
	Codec           string
	ErrorBound      float64
	RawBytes        int64
	CompressedBytes int64
	MaxAbsError     float64
	PSNR            float64 // dB, against the data range
}

// Ratio returns raw/compressed.
func (r Result) Ratio() float64 {
	if r.CompressedBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.CompressedBytes)
}

// BitRate returns compressed bits per value (raw values are 32-bit).
func (r Result) BitRate() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return 32 * float64(r.CompressedBytes) / float64(r.RawBytes)
}

// Evaluate compresses, decompresses and scores a codec on one array.
func Evaluate(c Codec, data []float32, dims []int, eb float64) (Result, error) {
	buf, err := c.Compress(data, dims, eb)
	if err != nil {
		return Result{}, err
	}
	out, _, err := c.Decompress(buf)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s round trip: %w", c.Name(), err)
	}
	if len(out) != len(data) {
		return Result{}, fmt.Errorf("compress: %s returned %d values, want %d", c.Name(), len(out), len(data))
	}
	return Result{
		Codec:           c.Name(),
		ErrorBound:      eb,
		RawBytes:        int64(len(data)) * 4,
		CompressedBytes: int64(len(buf)),
		MaxAbsError:     MaxAbsError(data, out),
		PSNR:            PSNR(data, out),
	}, nil
}

// MaxAbsError returns max_i |a[i]-b[i]|. NaN pairs (both NaN) count as zero
// error; a NaN mismatch is +Inf.
func MaxAbsError(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		d := math.Abs(x - y)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

// PSNR computes peak signal-to-noise ratio in dB with the data range as
// peak, the standard lossy-compression quality metric.
func PSNR(orig, recon []float32) float64 {
	if len(orig) == 0 || len(orig) != len(recon) {
		return 0
	}
	lo, hi := float64(orig[0]), float64(orig[0])
	var mse float64
	for i := range orig {
		x := float64(orig[i])
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		d := x - float64(recon[i])
		mse += d * d
	}
	mse /= float64(len(orig))
	if mse == 0 {
		return math.Inf(1)
	}
	rng := hi - lo
	if rng == 0 {
		return 0
	}
	return 20*math.Log10(rng) - 10*math.Log10(mse)
}

// AbsBoundFromRelative converts a range-relative bound (the 1e-1..1e-4
// knobs in the paper) into the absolute bound both codecs take.
func AbsBoundFromRelative(rel float64, data []float32) float64 {
	if len(data) == 0 {
		return rel
	}
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	r := float64(hi - lo)
	if r == 0 {
		r = 1
	}
	return rel * r
}

// PaperErrorBounds are the four bounds the paper sweeps (Section III-A).
var PaperErrorBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4}
