// Package fft implements the spectral transforms behind the electrostatic
// density model of the placement engine (paper Eqs. 4–6).
//
// The density grid is expanded in a half-sample cosine basis
//
//	ρ[m] ≈ Σ_u a[u]·cos(k_u·(m+1/2)),  k_u = πu/M,
//
// which corresponds to Neumann (zero-flux) boundary conditions at the chip
// edges: charge does not push across the placement boundary. The package
// provides the three one-dimensional primitives the 2-D Poisson solver
// needs — the forward cosine analysis (a DCT-II), cosine evaluation for the
// potential, and sine evaluation for the electric field — in O(M log M).
//
// RealPlan, the engine the solver runs on, computes each primitive with
// one radix-2 complex FFT of size M/2 (Makhoul's permutation plus
// real-input packing; see RealPlan). Its input is packed straight into the
// bit-reversed order the FFT's stages read, the stages run two at a time
// over twiddles laid out contiguously per stage, and the synthesis halves
// through half, which reproduces Go's complex division by 2 bit for bit.
// Spectral, the reference the tests compare against, computes each
// primitive as a complex FFT of size 2M over the mirror extension.
//
// Every product that feeds an add is converted (float64(x*y) + z) or goes
// through mul, so no architecture fuses it into a multiply-add and every
// platform computes the bits amd64 does.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds precomputed twiddle factors and the bit-reversal permutation
// for complex FFTs of a fixed power-of-two size. After construction a Plan
// is immutable — Forward/Inverse only read it and work in place on the
// caller's buffer — so one Plan may be shared by any number of concurrent
// transforms as long as each goroutine owns its data buffer. Spectral
// wraps a Plan together with per-instance scratch; use Spectral.Clone to
// fan one precomputed Plan out across workers.
type Plan struct {
	n    int
	logn int
	rev  []int
	// stw lays each radix-2 stage's twiddles out contiguously: the stage
	// of span 2h reads stw[h-1 : 2h-1], where stw[h-1+j] = exp(-2πi·j/(2h))
	// is taken from the size-n table exp(-2πi·k/n) at k = j·n/(2h).
	stw []complex128
}

// NewPlan creates a plan for complex FFTs of size n, which must be a power
// of two and at least 1.
func NewPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: size %d is not a positive power of two", n))
	}
	p := &Plan{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	p.stw = make([]complex128, max(n-1, 0))
	for h := 1; h < n; h <<= 1 {
		step := n / (2 * h)
		for j := 0; j < h; j++ {
			ang := -2 * math.Pi * float64(j*step) / float64(n)
			p.stw[h-1+j] = complex(math.Cos(ang), math.Sin(ang))
		}
	}
	return p
}

// Size returns the transform size of the plan.
func (p *Plan) Size() int { return p.n }

// Forward computes the in-place forward DFT:
//
//	X[u] = Σ_m x[m]·exp(-2πi·u·m/n).
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: data length %d != plan size %d", len(x), p.n))
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.stages(x)
}

// stages runs the radix-2 decimation-in-time butterflies on x, which must
// hold the input in bit-reversed order (Forward permutes it; RealPlan packs
// straight into those slots), and leaves the DFT in natural order. Two
// stages at a time share one pass over x: each group of four values takes
// its two butterflies of the first stage and its two of the second while
// in registers. Every butterfly still computes t = w·b, then a+t and a−t,
// on the operands a radix-2 stage at a time would give it, so the bits are
// those of one stage after another.
func (p *Plan) stages(x []complex128) {
	n := p.n
	if n < 2 {
		return
	}
	x = x[:n]
	if n == 2 {
		x[0], x[1] = butterfly(p.stw[0], x[0], x[1])
		return
	}
	// The first two stages: spans 2 and 4, twiddles stw[0] and stw[1:3].
	w, w0, w1 := p.stw[0], p.stw[1], p.stw[2]
	for k := 0; k < n; k += 4 {
		g := x[k : k+4]
		y0, y1 := butterfly(w, g[0], g[1])
		y2, y3 := butterfly(w, g[2], g[3])
		g[0], g[2] = butterfly(w0, y0, y2)
		g[1], g[3] = butterfly(w1, y1, y3)
	}
	h := 4
	for ; 4*h <= n; h *= 4 {
		// Spans 2h and 4h; tb's first half serves (y0, y2), its second
		// half (y1, y3).
		ta, tb := p.stw[h-1:2*h-1], p.stw[2*h-1:4*h-1]
		for s := 0; s < n; s += 4 * h {
			q0, q1, q2, q3 := x[s:s+h], x[s+h:s+2*h], x[s+2*h:s+3*h], x[s+3*h:s+4*h]
			q0, q1, q2, q3 = q0[:len(ta)], q1[:len(ta)], q2[:len(ta)], q3[:len(ta)]
			tb0, tb1 := tb[:len(ta)], tb[len(ta):2*len(ta)]
			for j, wa := range ta {
				y0, y1 := butterfly(wa, q0[j], q1[j])
				y2, y3 := butterfly(wa, q2[j], q3[j])
				q0[j], q2[j] = butterfly(tb0[j], y0, y2)
				q1[j], q3[j] = butterfly(tb1[j], y1, y3)
			}
		}
	}
	if h < n {
		// One stage left over, of span n = 2h.
		ta := p.stw[h-1 : 2*h-1]
		a, b := x[:h], x[h:]
		a, b = a[:len(ta)], b[:len(ta)]
		for j, wa := range ta {
			a[j], b[j] = butterfly(wa, a[j], b[j])
		}
	}
}

// butterfly returns a + w·b and a − w·b.
func butterfly(w, a, b complex128) (complex128, complex128) {
	t := mul(w, b)
	return a + t, a - t
}

// mul returns w·z with the operations of Go's complex multiply,
// (wr·zr − wi·zi) + i(wr·zi + wi·zr), each product rounded on its own: the
// conversions forbid the fused multiply-adds some architectures would
// otherwise emit, so every platform computes the same bits.
func mul(w, z complex128) complex128 {
	wr, wi, zr, zi := real(w), imag(w), real(z), imag(z)
	return complex(float64(wr*zr)-float64(wi*zi), float64(wr*zi)+float64(wi*zr))
}

// half returns z/2 bit for bit as Go's complex division by 2 computes it,
// for finite z, without the runtime call. The division is Smith's
// algorithm with divisor 2+0i: ratio 0/2 = +0 and denominator 2, so it
// evaluates ((re + im·0)/2, (im − re·0)/2). Those ±0 terms are kept on
// purpose: halving each component alone differs on signed zeros (for
// re = −0 and im ≥ +0 the division yields +0, not −0). The outer
// conversions keep the halving, which compiles to a multiply by 0.5, from
// fusing into the caller's next add.
func half(z complex128) complex128 {
	re, im := real(z), imag(z)
	return complex(float64((re+float64(im*0))/2), float64((im-float64(re*0))/2))
}

// Inverse computes the in-place inverse DFT with 1/n normalization:
//
//	x[m] = (1/n)·Σ_u X[u]·exp(+2πi·u·m/n).
func (p *Plan) Inverse(x []complex128) {
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	p.Forward(x)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// Spectral bundles the three real transforms used by the Poisson solver for
// one dimension of size M (a power of two). Internally every transform is a
// complex FFT of size 2M over the mirror extension of the input.
//
// A Spectral carries private scratch (buf), so a single instance is not
// safe for concurrent use; Clone returns additional instances that share
// the immutable plan and phase tables but own fresh scratch, which is how
// the density solver batches row/column transforms across workers without
// recomputing twiddle factors per worker.
type Spectral struct {
	m    int
	plan *Plan
	buf  []complex128
	// phase[u] = exp(-iπu/(2M)) used to extract half-sample cosine series.
	phase []complex128
}

// NewSpectral creates the transform set for dimension size m (power of two).
func NewSpectral(m int) *Spectral {
	s := &Spectral{m: m, plan: NewPlan(2 * m)}
	s.buf = make([]complex128, 2*m)
	s.phase = make([]complex128, m)
	for u := 0; u < m; u++ {
		ang := -math.Pi * float64(u) / float64(2*m)
		s.phase[u] = complex(math.Cos(ang), math.Sin(ang))
	}
	return s
}

// Size returns M.
func (s *Spectral) Size() int { return s.m }

// Clone returns a new Spectral sharing s's precomputed plan and phase
// table (both immutable after construction) with its own scratch buffer,
// so the clone and the original can run transforms concurrently. Cloning
// costs one 2M-complex allocation and no trigonometry.
func (s *Spectral) Clone() *Spectral {
	return &Spectral{
		m:     s.m,
		plan:  s.plan,
		buf:   make([]complex128, 2*s.m),
		phase: s.phase,
	}
}

// CosCoeffs computes the unnormalized DCT-II analysis
//
//	a[u] = Σ_{m=0}^{M-1} x[m]·cos(πu(m+1/2)/M),  u = 0..M-1.
//
// out must have length M and may not alias x.
func (s *Spectral) CosCoeffs(x, out []float64) {
	s.check(x, out)
	for m := 0; m < s.m; m++ {
		v := complex(x[m], 0)
		s.buf[m] = v
		s.buf[2*s.m-1-m] = v
	}
	s.plan.Forward(s.buf)
	for u := 0; u < s.m; u++ {
		// Xe[u] = exp(iπu/(2M)) · 2·Σ x cos(πu(m+1/2)/M)
		// Xe[u] = exp(iπu/(2M))·2·Σ x cos(πu(m+1/2)/M), so multiplying by
		// phase[u] = exp(-iπu/(2M)) leaves twice the cosine sum.
		out[u] = 0.5 * real(mul(s.phase[u], s.buf[u]))
	}
}

// EvalCos evaluates the cosine series
//
//	y[m] = Σ_{u=0}^{M-1} a[u]·cos(πu(m+1/2)/M).
//
// out must have length M and may not alias a.
func (s *Spectral) EvalCos(a, out []float64) {
	s.check(a, out)
	// y[m] = Re( Σ_u a[u]·exp(iπu(m+1/2)/M) )
	//      = Re( Σ_u (a[u]·exp(iπu/(2M)))·exp(2πi·u·m/(2M)) )
	// Compute the positive-exponent sum as conj(FFT(conj(B))).
	for u := 0; u < s.m; u++ {
		// conj(B[u]) where B[u] = a[u]·exp(iπu/(2M)) = a[u]·conj(phase[u]).
		s.buf[u] = mul(complex(a[u], 0), s.phase[u])
	}
	for u := s.m; u < 2*s.m; u++ {
		s.buf[u] = 0
	}
	s.plan.Forward(s.buf)
	for m := 0; m < s.m; m++ {
		out[m] = real(s.buf[m]) // Re(conj(z)) == Re(z)
	}
}

// EvalSin evaluates the sine series
//
//	y[m] = Σ_{u=0}^{M-1} c[u]·sin(πu(m+1/2)/M).
//
// The u = 0 term contributes nothing. out must have length M and may not
// alias c.
func (s *Spectral) EvalSin(c, out []float64) {
	s.check(c, out)
	// y[m] = Im( Σ_u c[u]·exp(iπu(m+1/2)/M) ), same sum as EvalCos:
	// the positive-exponent sum equals conj(FFT(conj(B))), whose imaginary
	// part is the negation of the computed FFT's imaginary part.
	for u := 0; u < s.m; u++ {
		s.buf[u] = mul(complex(c[u], 0), s.phase[u])
	}
	for u := s.m; u < 2*s.m; u++ {
		s.buf[u] = 0
	}
	s.plan.Forward(s.buf)
	for m := 0; m < s.m; m++ {
		out[m] = -imag(s.buf[m])
	}
}

func (s *Spectral) check(in, out []float64) {
	if len(in) != s.m || len(out) != s.m {
		panic(fmt.Sprintf("fft: spectral buffers %d/%d != size %d", len(in), len(out), s.m))
	}
}

// Freq returns the spatial frequency k_u = πu/M of basis index u.
func (s *Spectral) Freq(u int) float64 {
	return math.Pi * float64(u) / float64(s.m)
}
