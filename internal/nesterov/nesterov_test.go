package nesterov

import (
	"math"
	"runtime"
	"testing"

	"puffer/internal/par"
)

// quadratic f(x) = 1/2 Σ c_i x_i², gradient c_i x_i.
func quadratic(coeffs []float64) EvalFunc {
	return func(x, grad []float64) {
		for i := range x {
			grad[i] = coeffs[i] * x[i]
		}
	}
}

func TestConvergesOnWellConditionedQuadratic(t *testing.T) {
	coeffs := []float64{1, 1, 1, 1}
	x0 := []float64{10, -7, 3, 5}
	o := New(x0, quadratic(coeffs), 0.1)
	for i := 0; i < 200; i++ {
		o.Step(nil)
	}
	for i, v := range o.Current() {
		if math.Abs(v) > 1e-3 {
			t.Errorf("x[%d] = %v after 200 iters, want ~0", i, v)
		}
	}
}

func TestConvergesOnIllConditionedQuadratic(t *testing.T) {
	// Condition number 1e4: plain gradient descent with a safe fixed step
	// needs ~10⁴ iterations; the accelerated method should get close in a
	// few hundred.
	coeffs := []float64{1e-2, 1e2}
	x0 := []float64{50, 50}
	o := New(x0, quadratic(coeffs), 1e-3)
	for i := 0; i < 600; i++ {
		o.Step(nil)
	}
	f := 0.0
	for i, v := range o.Current() {
		f += 0.5 * coeffs[i] * v * v
	}
	f0 := 0.5*1e-2*2500 + 0.5*1e2*2500
	if f > 1e-4*f0 {
		t.Errorf("objective reduced only to %v of %v", f, f0)
	}
}

func TestStepAdaptsToCurvature(t *testing.T) {
	coeffs := []float64{100, 100}
	o := New([]float64{1, 1}, quadratic(coeffs), 1.0) // step way too large
	for i := 0; i < 30; i++ {
		o.Step(nil)
	}
	// Inverse-Lipschitz prediction should have pulled alpha near 1/L = 0.01.
	if a := o.Alpha(); a > 0.05 {
		t.Errorf("alpha = %v, want near 1/L = 0.01", a)
	}
	for _, v := range o.Current() {
		if math.IsNaN(v) || math.Abs(v) > 10 {
			t.Fatalf("diverged: %v", o.Current())
		}
	}
}

func TestProjectionKeepsBox(t *testing.T) {
	// Minimize (x-10)² constrained to [0, 2]: solution sticks to x = 2.
	eval := func(x, grad []float64) {
		grad[0] = 2 * (x[0] - 10)
	}
	project := func(x []float64) {
		if x[0] < 0 {
			x[0] = 0
		}
		if x[0] > 2 {
			x[0] = 2
		}
	}
	o := New([]float64{1}, eval, 0.1)
	for i := 0; i < 100; i++ {
		o.Step(project)
	}
	if got := o.Current()[0]; math.Abs(got-2) > 1e-9 {
		t.Errorf("projected solution = %v, want 2", got)
	}
}

func TestZeroGradientIsStable(t *testing.T) {
	eval := func(x, grad []float64) {
		for i := range grad {
			grad[i] = 0
		}
	}
	o := New([]float64{3, 4}, eval, 0.5)
	for i := 0; i < 10; i++ {
		o.Step(nil)
	}
	if o.Current()[0] != 3 || o.Current()[1] != 4 {
		t.Errorf("moved under zero gradient: %v", o.Current())
	}
	if math.IsNaN(o.Alpha()) {
		t.Error("alpha became NaN")
	}
}

func TestAcceleratedBeatsPlainGradientDescent(t *testing.T) {
	coeffs := []float64{1e-1, 1e2}
	x0 := []float64{30, 30}
	iters := 150

	o := New(x0, quadratic(coeffs), 1e-3)
	for i := 0; i < iters; i++ {
		o.Step(nil)
	}
	fN := 0.0
	for i, v := range o.Current() {
		fN += 0.5 * coeffs[i] * v * v
	}

	// Plain GD with the safe step 1/L.
	x := append([]float64(nil), x0...)
	step := 1 / 1e2
	for i := 0; i < iters; i++ {
		for j := range x {
			x[j] -= step * coeffs[j] * x[j]
		}
	}
	fGD := 0.0
	for i, v := range x {
		fGD += 0.5 * coeffs[i] * v * v
	}
	if fN >= fGD {
		t.Errorf("Nesterov %v not better than GD %v after %d iters", fN, fGD, iters)
	}
}

func TestReferenceAndCurrentExposed(t *testing.T) {
	o := New([]float64{1}, quadratic([]float64{1}), 0.1)
	if len(o.Reference()) != 1 || len(o.Current()) != 1 {
		t.Fatal("state vectors wrong length")
	}
	o.Step(nil)
	if o.Alpha() <= 0 {
		t.Error("alpha not positive")
	}
}

// startedTeam returns a started team of workers executors — the form the
// placement engine hands its kernels — stopped when the test ends.
func startedTeam(tb testing.TB, workers int) *par.Team {
	tm := par.NewTeam(workers)
	tm.Start()
	tb.Cleanup(tm.Stop)
	return tm
}

// TestStepParallelMatchesSerial proves the sharded vector updates and
// fixed-shard norm reductions give bit-identical trajectories for any
// worker count, on a vector long enough for multiple reduction shards and
// a started team.
func TestStepParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	const n = 20000 // > ndElemsPerShard so the reduction really shards
	quad := func(x, grad []float64) {
		for i := range x {
			grad[i] = x[i] - float64(i%7)
		}
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64((i*37)%11) * 0.5
	}

	ref := New(x0, quad, 0.1)
	if len(ref.ndPartial) < 2 {
		t.Fatalf("test wants multiple norm shards, got %d", len(ref.ndPartial))
	}
	for k := 0; k < 5; k++ {
		ref.Step(nil)
	}

	for _, workers := range []int{2, 4, 16} {
		o := New(x0, quad, 0.1)
		o.SetTeam(startedTeam(t, workers))
		for k := 0; k < 5; k++ {
			o.Step(nil)
		}
		for i := range ref.u {
			if o.u[i] != ref.u[i] || o.v[i] != ref.v[i] {
				t.Fatalf("workers=%d: index %d diverged u %v/%v v %v/%v",
					workers, i, o.u[i], ref.u[i], o.v[i], ref.v[i])
			}
		}
		if o.Alpha() != ref.Alpha() {
			t.Fatalf("workers=%d: alpha %v, want %v", workers, o.Alpha(), ref.Alpha())
		}
	}
}

// TestStepZeroAllocSteadyState guards the step: no allocations once the
// optimizer is constructed — serially or on a started team, on a vector
// long enough for multiple norm shards.
func TestStepZeroAllocSteadyState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	quad := func(x, grad []float64) {
		for i := range x {
			grad[i] = x[i]
		}
	}
	x0 := make([]float64, 3*ndElemsPerShard)
	for i := range x0 {
		x0[i] = float64(i) * 0.01
	}
	for _, workers := range []int{1, 4} {
		o := New(x0, quad, 0.1)
		o.SetTeam(startedTeam(t, workers))
		o.Step(nil) // warm up
		if n := testing.AllocsPerRun(10, func() { o.Step(nil) }); n != 0 {
			t.Errorf("workers=%d: steady-state Step allocates %v per run, want 0", workers, n)
		}
	}
}

// TestRestart checks the mid-run restart: the solution is preserved and
// optimization still converges afterwards.
func TestRestart(t *testing.T) {
	eval := quadratic([]float64{1, 4, 9, 16})
	o := New([]float64{5, -3, 2, -1}, eval, 0.1)
	for i := 0; i < 5; i++ {
		o.Step(nil)
	}
	before := append([]float64(nil), o.Current()...)

	o.Restart()
	for i, v := range o.Current() {
		if v != before[i] {
			t.Fatalf("Restart moved the solution at %d: %v vs %v", i, v, before[i])
		}
	}
	for i := 0; i < 200; i++ {
		o.Step(nil)
	}
	for i, v := range o.Current() {
		if math.Abs(v) > 1e-4 {
			t.Errorf("post-restart convergence failed: x[%d] = %v", i, v)
		}
	}
}
