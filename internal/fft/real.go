package fft

import (
	"fmt"
	"math"
)

// Transform is the 1-D spectral engine contract the density solver builds
// on: unnormalized DCT-II analysis, cosine synthesis for the potential and
// sine synthesis for the field, all over the half-sample cosine basis
// cos(πu(m+1/2)/M). Two implementations exist:
//
//   - Spectral, the reference the tests compare against (no non-test code
//     constructs one): every primitive is a complex FFT of size 2M over
//     the mirror extension of the input.
//   - RealPlan, the production path: real-input symmetry and fused DCT
//     twiddles reduce each primitive to one complex FFT of size M/2.
//
// Both are deterministic and allocation-free per call after construction;
// CloneTransform fans an instance out across workers, sharing the
// immutable plan while owning fresh scratch.
type Transform interface {
	// Size returns the transform length M.
	Size() int
	// Freq returns the spatial frequency k_u = πu/M of basis index u.
	Freq(u int) float64
	// CosCoeffs computes a[u] = Σ_m x[m]·cos(πu(m+1/2)/M), u = 0..M-1.
	CosCoeffs(x, out []float64)
	// EvalCos evaluates y[m] = Σ_u a[u]·cos(πu(m+1/2)/M).
	EvalCos(a, out []float64)
	// EvalSin evaluates y[m] = Σ_u c[u]·sin(πu(m+1/2)/M); the u = 0 term
	// contributes nothing.
	EvalSin(c, out []float64)
	// CloneTransform returns an instance sharing the immutable plan with
	// its own scratch, safe to run concurrently with the original.
	CloneTransform() Transform
}

// Compile-time interface checks.
var (
	_ Transform = (*Spectral)(nil)
	_ Transform = (*RealPlan)(nil)
)

// CloneTransform implements Transform for the reference Spectral engine.
func (s *Spectral) CloneTransform() Transform { return s.Clone() }

// RealPlan computes the density solver's three real transforms of size M
// (a power of two ≥ 2) through a single complex FFT of size M/2, instead
// of Spectral's complex FFT of size 2M over the mirror extension. Two
// standard identities make that possible, with every pre/post twiddle
// fused into the pack/unpack loops so no intermediate pass over a length-2M
// buffer ever happens:
//
//   - Makhoul's permutation: reordering the input as v = [x0, x2, …, x3,
//     x1] turns the DCT-II into the real part of a phase-twisted DFT of
//     size M: a[u] = Re(e^{-iπu/(2M)}·DFT_M(v)[u]).
//   - Real-input packing: the size-M DFT of the real sequence v is
//     recovered from the size-M/2 complex FFT of z[k] = v[2k] + i·v[2k+1]
//     by the conjugate-symmetric unpack butterfly.
//
// The synthesis directions invert both steps (a Hermitian spectrum is
// rebuilt from the coefficients, collapsed to a half-size complex inverse
// FFT, and de-permuted), and the sine evaluation reuses the cosine path
// through the reversal identity sin(uθ_m) = (-1)^m·cos((M-u)θ_m).
//
// Like Spectral, a RealPlan carries private scratch, so one instance is
// not safe for concurrent use; Clone shares the plan and twiddle tables
// (immutable after construction) with fresh scratch.
type RealPlan struct {
	m    int
	half *Plan        // complex plan of size M/2
	buf  []complex128 // scratch, length M/2

	// Fused twiddle tables, length M/2+1:
	//	pa[u] = exp(-iπu/(2M))            (DCT-II output twiddle)
	//	pb[u] = pa[u]·exp(-2πiu/M)        (DCT twiddle × unpack twiddle)
	//	tw[u] = exp(-2πiu/M)              (real-FFT unpack twiddle)
	pa, pb, tw []complex128
}

// NewRealPlan creates the fused real-transform set for size m, which must
// be a power of two and at least 2.
func NewRealPlan(m int) *RealPlan {
	if m < 2 || m&(m-1) != 0 {
		panic(fmt.Sprintf("fft: real plan size %d is not a power of two >= 2", m))
	}
	h := m / 2
	p := &RealPlan{
		m:    m,
		half: NewPlan(h),
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
		p.pb[u] = mul(p.pa[u], p.tw[u])
	}
	return p
}

// Size returns M.
func (p *RealPlan) Size() int { return p.m }

// Freq returns the spatial frequency k_u = πu/M of basis index u.
func (p *RealPlan) Freq(u int) float64 {
	return math.Pi * float64(u) / float64(p.m)
}

// Clone returns a new RealPlan sharing p's precomputed half-size plan and
// twiddle tables (immutable after construction) with its own scratch, so
// the clone and the original can run transforms concurrently. Cloning
// costs one M/2-complex allocation and no trigonometry.
func (p *RealPlan) Clone() *RealPlan {
	return &RealPlan{
		m:    p.m,
		half: p.half,
		buf:  make([]complex128, p.m/2),
		pa:   p.pa,
		pb:   p.pb,
		tw:   p.tw,
	}
}

// CloneTransform implements Transform.
func (p *RealPlan) CloneTransform() Transform { return p.Clone() }

func (p *RealPlan) check(in, out []float64) {
	if len(in) != p.m || len(out) != p.m {
		panic(fmt.Sprintf("fft: real plan buffers %d/%d != size %d", len(in), len(out), p.m))
	}
}

// CosCoeffs computes the unnormalized DCT-II analysis
//
//	a[u] = Σ_{m=0}^{M-1} x[m]·cos(πu(m+1/2)/M),  u = 0..M-1,
//
// via one complex FFT of size M/2. out must have length M and may not
// alias x.
func (p *RealPlan) CosCoeffs(x, out []float64) {
	p.check(x, out)
	h, m := p.m/2, p.m
	buf, rev := p.buf, p.half.rev

	// Fused permutation + real-input pack, z[k] = v[2k] + i·v[2k+1], with
	// v[j] = x[2j] for j < M/2 and x[2M-2j-1] otherwise, written straight
	// into bit-reversed order: slot i takes z[rev[i]]. For even i, k =
	// rev[i] < M/4 and rev[i+1] = k + M/4, whose v indices fold to
	// x[M-4k-1] and x[M-4k-3].
	if h == 1 {
		buf[0] = complex(x[0], x[1])
	} else {
		for i := 0; i < h; i += 2 {
			k := 4 * rev[i]
			buf[i] = complex(x[k], x[k+2])
			buf[i+1] = complex(x[m-k-1], x[m-k-3])
		}
	}
	p.half.stages(buf)

	// Unpack V[u] of the real DFT from Z and apply the fused DCT twiddle:
	// with Fe/Fo the even/odd half-spectra, V[u] = Fe[u] + tw[u]·Fo[u] and
	// W = pa[u]·V[u] yields a[u] = Re(W) and, by Hermitian symmetry of V,
	// a[M-u] = Re(pa[M-u]·conj(V[u])) = -Im(W).
	for u := 0; u <= h; u++ {
		zu := buf[u&(h-1)]
		zr := buf[(h-u)&(h-1)]
		sum := zu + conj(zr) // Z[u] + conj(Z[M/2-u])
		dif := zu - conj(zr)
		fe := complex(real(sum)/2, imag(sum)/2)
		fo := complex(imag(dif)/2, -real(dif)/2) // -i·(Z[u]-conj(Z[M/2-u]))/2
		w := mul(p.pa[u], fe) + mul(p.pb[u], fo)
		out[u] = real(w)
		if u > 0 {
			out[m-u] = -imag(w)
		}
	}
}

// spec returns the Hermitian spectrum entry V[u] = e^{iπu/(2M)}·(a'[u] -
// i·a'[M-u]), 0 < u ≤ M/2, where a' is a read forward (cosine) or
// index-reversed (sine, per sin(uθ_m) = (-1)^m·cos((M-u)θ_m)).
func (p *RealPlan) spec(a []float64, u int, sine bool) complex128 {
	re, im := a[u], -a[p.m-u]
	if sine {
		re, im = a[p.m-u], -a[u]
	}
	q := p.pa[u] // conj(q)·(re + i·im)
	return complex(float64(real(q)*re)+float64(imag(q)*im), float64(real(q)*im)-float64(imag(q)*re))
}

// zConj returns conj(Z[u]) of the half-size spectrum Z[u] = Fe[u] +
// i·Fo[u], given Fe[u] = (V[u] + conj(V[M/2-u]))/2, d = (V[u] −
// conj(V[M/2-u]))/2 and t = tw[u], so that Fo[u] = e^{2πiu/M}·d =
// conj(t)·d.
func zConj(t, fe, d complex128) complex128 {
	fo := complex(float64(real(t)*real(d))+float64(imag(t)*imag(d)), float64(real(t)*imag(d))-float64(imag(t)*real(d)))
	z := fe + complex(-imag(fo), real(fo))
	return conj(z)
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// synth is the shared half-size inverse path behind EvalCos and EvalSin.
// It evaluates y[m] = Σ_u a'[u]·cos(πu(m+1/2)/M) + dc, where a' is the
// coefficient vector read forward (cosine) or index-reversed (sine), and
// writes the result through the inverse Makhoul permutation with the sine
// sign alternation folded into the odd output slots.
func (p *RealPlan) synth(a, out []float64, sine bool) {
	h, m := p.m/2, p.m
	buf, rev := p.buf, p.half.rev

	// Rebuild the Hermitian spectrum V (V[0] = a'[0]) and collapse it to
	// conj(Z), packed into bit-reversed slots so one forward FFT computes
	// the un-normalized inverse transform. Each V[u] is formed once and
	// serves both Z[u] and Z[M/2-u].
	var v0 complex128
	if !sine {
		v0 = complex(a[0], 0)
	}
	vh := conj(p.spec(a, h, sine))
	buf[0] = zConj(p.tw[0], half(v0+vh), half(v0-vh))
	for u := 1; u < h-u; u++ {
		vu, vr := p.spec(a, u, sine), p.spec(a, h-u, sine)
		cu, cr := conj(vu), conj(vr)
		buf[rev[u]] = zConj(p.tw[u], half(vu+cr), half(vu-cr))
		buf[rev[h-u]] = zConj(p.tw[h-u], half(vr+cu), half(vr-cu))
	}
	if h > 1 {
		vq := p.spec(a, h/2, sine)
		cq := conj(vq)
		buf[rev[h/2]] = zConj(p.tw[h/2], half(vq+cq), half(vq-cq))
	}
	p.half.stages(buf)

	// De-permute: conj(buf[k]) carries w[2k] (real) and w[2k+1] (imag) of
	// the inverse real FFT; output index j maps w[n] to y[2n] for n < M/2
	// and to y[2M-2n-1] otherwise. The scaling works out to exactly 1 (the
	// M/2 synthesis factor cancels the FFT's missing 1/(M/2)), leaving
	// only the a'[0]/2 DC half-term of the plain (un-halved) cosine sum.
	// The first half adds dc (+0 for the sine) in both directions.
	dc := 0.0
	if !sine {
		dc = a[0] / 2
	}
	if h == 1 {
		out[0] = real(buf[0]) + dc
		if sine {
			out[1] = imag(buf[0])
		} else {
			out[1] = -imag(buf[0]) + dc
		}
		return
	}
	for k := 0; k < h/2; k++ {
		out[4*k] = real(buf[k]) + dc
		out[4*k+2] = -imag(buf[k]) + dc
	}
	for k := h / 2; k < h; k++ {
		if sine {
			out[2*m-4*k-1] = -real(buf[k])
			out[2*m-4*k-3] = imag(buf[k])
		} else {
			out[2*m-4*k-1] = real(buf[k]) + dc
			out[2*m-4*k-3] = -imag(buf[k]) + dc
		}
	}
}

// EvalCos evaluates the cosine series
//
//	y[m] = Σ_{u=0}^{M-1} a[u]·cos(πu(m+1/2)/M)
//
// via one complex FFT of size M/2. out must have length M and may not
// alias a.
func (p *RealPlan) EvalCos(a, out []float64) {
	p.check(a, out)
	p.synth(a, out, false)
}

// EvalSin evaluates the sine series
//
//	y[m] = Σ_{u=0}^{M-1} c[u]·sin(πu(m+1/2)/M)
//
// via one complex FFT of size M/2. The u = 0 term contributes nothing.
// out must have length M and may not alias c.
func (p *RealPlan) EvalSin(c, out []float64) {
	p.check(c, out)
	p.synth(c, out, true)
}
