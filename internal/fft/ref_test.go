package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refPlan and refRealPlan are the complex FFT and the real-input
// transforms as they stood before the stage-contiguous twiddles, the
// bit-reversed packing, the paired spectrum and the inline halving. They
// are the oracle the production code must match bit for bit. The only
// edit is refMul, the written-out complex multiply with each product
// converted: on amd64, where the Go compiler never fuses, it computes what
// `w * z` computes, and elsewhere it keeps fused multiply-adds out of the
// oracle. The complex division by 2 stays a division.
type refPlan struct {
	n       int
	logn    int
	rev     []int
	twiddle []complex128 // twiddle[k] = exp(-2πi k / n), k < n/2
}

func refMul(w, z complex128) complex128 {
	return complex(float64(real(w)*real(z))-float64(imag(w)*imag(z)),
		float64(real(w)*imag(z))+float64(imag(w)*real(z)))
}

func newRefPlan(n int) *refPlan {
	p := &refPlan{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p
}

func (p *refPlan) Forward(x []complex128) {
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				t := refMul(w, x[k+half])
				x[k+half] = x[k] - t
				x[k] = x[k] + t
			}
		}
	}
}

type refRealPlan struct {
	m          int
	half       *refPlan
	buf        []complex128
	pa, pb, tw []complex128
}

func newRefRealPlan(m int) *refRealPlan {
	h := m / 2
	p := &refRealPlan{
		m:    m,
		half: newRefPlan(h),
		buf:  make([]complex128, h),
		pa:   make([]complex128, h+1),
		pb:   make([]complex128, h+1),
		tw:   make([]complex128, h+1),
	}
	for u := 0; u <= h; u++ {
		aAng := -math.Pi * float64(u) / float64(2*m)
		tAng := -2 * math.Pi * float64(u) / float64(m)
		p.pa[u] = complex(math.Cos(aAng), math.Sin(aAng))
		p.tw[u] = complex(math.Cos(tAng), math.Sin(tAng))
		p.pb[u] = refMul(p.pa[u], p.tw[u])
	}
	return p
}

func (p *refRealPlan) vIndex(j int) int {
	if j < p.m/2 {
		return 2 * j
	}
	return 2*p.m - 2*j - 1
}

func (p *refRealPlan) CosCoeffs(x, out []float64) {
	h := p.m / 2
	for k := 0; k < h; k++ {
		p.buf[k] = complex(x[p.vIndex(2*k)], x[p.vIndex(2*k+1)])
	}
	p.half.Forward(p.buf)
	for u := 0; u <= h; u++ {
		zu := p.buf[u%h]
		zr := p.buf[(h-u)%h]
		sum := zu + complex(real(zr), -imag(zr))
		dif := zu - complex(real(zr), -imag(zr))
		fe := complex(real(sum)/2, imag(sum)/2)
		fo := complex(imag(dif)/2, -real(dif)/2)
		w := refMul(p.pa[u], fe) + refMul(p.pb[u], fo)
		out[u] = real(w)
		if u > 0 {
			out[p.m-u] = -imag(w)
		}
	}
}

func (p *refRealPlan) synth(a, out []float64, sine bool) {
	h, m := p.m/2, p.m
	vAt := func(u int) complex128 {
		var re, im float64
		if sine {
			if u == 0 {
				return 0
			}
			re, im = a[m-u], -a[u]
		} else {
			if u == 0 {
				return complex(a[0], 0)
			}
			re, im = a[u], -a[m-u]
		}
		q := p.pa[u]
		return complex(float64(real(q)*re)+float64(imag(q)*im), float64(real(q)*im)-float64(imag(q)*re))
	}
	for u := 0; u < h; u++ {
		vu := vAt(u)
		vr := vAt(h - u)
		cvr := complex(real(vr), -imag(vr))
		fe := (vu + cvr) / 2
		d := (vu - cvr) / 2
		t := p.tw[u]
		fo := complex(float64(real(t)*real(d))+float64(imag(t)*imag(d)), float64(real(t)*imag(d))-float64(imag(t)*real(d)))
		z := fe + complex(-imag(fo), real(fo))
		p.buf[u] = complex(real(z), -imag(z))
	}
	p.half.Forward(p.buf)
	dc := 0.0
	if !sine {
		dc = a[0] / 2
	}
	for k := 0; k < h; k++ {
		re := real(p.buf[k])
		im := -imag(p.buf[k])
		n := 2 * k
		if n < h {
			out[2*n] = re + dc
		} else if sine {
			out[2*m-2*n-1] = -re
		} else {
			out[2*m-2*n-1] = re + dc
		}
		n = 2*k + 1
		if n < h {
			out[2*n] = im + dc
		} else if sine {
			out[2*m-2*n-1] = -im
		} else {
			out[2*m-2*n-1] = im + dc
		}
	}
}

// specialValues are the inputs where a rewrite that is exact in real
// arithmetic can still change bits: signed zeros and subnormals.
var specialValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, -0x1p-1060, 0x1p-1030,
	1, -1, 0.5, -2.25,
}

// sampleSignal fills x with a mix of normal values and, where the seed
// picks them, runs of signed zeros and subnormals.
func sampleSignal(rng *rand.Rand, x []float64) {
	mode := rng.Intn(4)
	for i := range x {
		switch {
		case mode == 0:
			x[i] = rng.NormFloat64() * 5
		case mode == 1 && rng.Intn(2) == 0, mode == 2:
			x[i] = specialValues[rng.Intn(len(specialValues))]
		default:
			x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkRealPlanAgainstReference runs the three primitives through the
// production plan and the reference on x and reports the first differing
// bit pattern.
func checkRealPlanAgainstReference(p *RealPlan, r *refRealPlan, x []float64) error {
	m := len(x)
	got, want := make([]float64, m), make([]float64, m)
	for _, prim := range []struct {
		name string
		run  func()
	}{
		{"CosCoeffs", func() { p.CosCoeffs(x, got); r.CosCoeffs(x, want) }},
		{"EvalCos", func() { p.EvalCos(x, got); r.synth(x, want, false) }},
		{"EvalSin", func() { p.EvalSin(x, got); r.synth(x, want, true) }},
	} {
		prim.run()
		if i := sameBits(got, want); i >= 0 {
			return fmt.Errorf("m=%d %s[%d] = %v (%#x), reference %v (%#x)", m, prim.name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// TestForwardMatchesReference holds the stage-contiguous, unrolled FFT to
// the reference bit for bit at every size 1–1024, on inputs carrying
// signed zeros and subnormals.
func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 1024; n *= 2 {
		p, r := NewPlan(n), newRefPlan(n)
		re, im := make([]float64, n), make([]float64, n)
		for trial := 0; trial < 8; trial++ {
			sampleSignal(rng, re)
			sampleSignal(rng, im)
			got, want := make([]complex128, n), make([]complex128, n)
			for i := range got {
				got[i] = complex(re[i], im[i])
			}
			copy(want, got)
			p.Forward(got)
			r.Forward(want)
			for i := range got {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d trial %d: X[%d] = %v, reference %v", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRealPlanMatchesReference holds CosCoeffs, EvalCos and EvalSin to the
// reference loops bit for bit at every size 2–1024.
func TestRealPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for m := 2; m <= 1024; m *= 2 {
		p, r := NewRealPlan(m), newRefRealPlan(m)
		x := make([]float64, m)
		for trial := 0; trial < 12; trial++ {
			sampleSignal(rng, x)
			if err := checkRealPlanAgainstReference(p, r, x); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		for _, z := range []float64{0, math.Copysign(0, -1)} {
			for i := range x {
				x[i] = z
			}
			if err := checkRealPlanAgainstReference(p, r, x); err != nil {
				t.Fatalf("all %v: %v", z, err)
			}
		}
	}
}

// TestHalfMatchesComplexDivision checks half against the runtime's complex
// division by 2 on every pair of special values, and that the plain
// per-component halving would not: it turns a +0 into −0.
func TestHalfMatchesComplexDivision(t *testing.T) {
	vals := append([]float64{math.MaxFloat64, -math.MaxFloat64, 1e-300}, specialValues...)
	for _, re := range vals {
		for _, im := range vals {
			z := complex(re, im)
			got, want := half(z), z/2
			if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
				t.Errorf("half(%v) = %v, z/2 = %v", z, got, want)
			}
		}
	}
	z := complex(math.Copysign(0, -1), 1)
	if plain, div := real(z)/2, real(z/2); math.Signbit(plain) == math.Signbit(div) {
		t.Errorf("per-component halving of %v agrees with the division (%v); half's ±0 terms would be unneeded", z, plain)
	}
}

// FuzzRealPlanMatchesReference feeds arbitrary finite signals of every
// size 2–1024 through the production plan and the reference loops and
// requires identical bits. Magnitudes are capped so no sum overflows:
// Go's complex division corrects infinite operands in ways half does not
// model.
func FuzzRealPlanMatchesReference(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(8), []byte("density grid rows and columns"))
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x3f})
	plans := map[int]*RealPlan{}
	refs := map[int]*refRealPlan{}
	f.Fuzz(func(t *testing.T, logm uint8, data []byte) {
		m := 2 << (logm % 10)
		if plans[m] == nil {
			plans[m], refs[m] = NewRealPlan(m), newRefRealPlan(m)
		}
		x := make([]float64, m)
		for i := range x {
			if len(data) < 8 {
				break
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(v) || math.Abs(v) > 0x1p1000 {
				v = math.Mod(float64(i), 7) - 3
			}
			x[i] = v
		}
		if err := checkRealPlanAgainstReference(plans[m], refs[m], x); err != nil {
			t.Fatal(err)
		}
	})
}
