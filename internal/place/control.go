package place

import (
	"math"

	"puffer/internal/geom"
)

// Why a global placement run stopped (Result.Stop, the place.gp span's
// "stop" argument and the GP stage-log line).
const (
	StopTarget   = "target"    // overflow reached Config.StopOverflow
	StopPlateau  = "plateau"   // no overflow gain for Config.PlateauIters iterations
	StopLambda   = "lambda"    // λ grew lambdaStopGrowth× past the best iterate since the last round
	StopMaxIters = "max_iters" // Config.MaxIters iterations ran
	StopCanceled = "canceled"  // the context was canceled
)

const (
	// bestGain: an overflow is a new best only below best·bestGain.
	bestGain = 0.999
	// lambdaStopGrowth: once a padding round has run, GP stops when λ has
	// grown this much past its value at the best iterate since the round.
	lambdaStopGrowth = 4
	// restoreSlack: at exit, the best iterate since the last round is
	// written back when the final overflow exceeds its by more than this
	// factor.
	restoreSlack = 1.01
)

// control is the GP controller: it owns λ, the stop rules and the
// bookkeeping of a padding round. RunCtx calls observe once per iteration,
// before the hook, so no round is granted on the iteration GP stops at;
// round when the hook padded; and adapt after the Nesterov step.
//
// The best iterate is the lowest overflow (by more than 1 − bestGain) since
// the last padding round, or since the start before the first. The plateau
// guard counts from it. Once a round has run, the iterate is also copied
// into snap, so the run can stop on λ growth and hand back its best.
type control struct {
	cfg      Config
	lambda   float64 // λ of Eq. 1
	prevHPWL float64 // HPWL of the previous iteration (λ schedule reference)

	rounds     int     // padding rounds absorbed
	best       float64 // best overflow since the last round
	bestIter   int
	bestLambda float64
	snap       []float64 // movable [x | y] of the best iterate once rounds > 0
	snapped    bool      // snap holds the best iterate since the last round

	stop string
}

// newControl returns a controller for a run over nm movable cells.
func newControl(cfg Config, nm int) control {
	return control{cfg: cfg, snap: make([]float64, 2*nm)}
}

// start resets the controller for a run that begins at λ and HPWL hpwl.
func (c *control) start(lambda, hpwl float64) {
	*c = control{cfg: c.cfg, snap: c.snap, lambda: lambda, prevHPWL: hpwl, best: math.Inf(1)}
}

// observe takes iteration iter's overflow at the iterate whose movable
// coordinates are xs, ys, and reports whether GP stops there.
func (c *control) observe(iter int, overflow float64, xs, ys []float64) bool {
	if overflow < c.best*bestGain {
		c.best, c.bestIter, c.bestLambda = overflow, iter, c.lambda
		if c.rounds > 0 {
			copy(c.snap, xs)
			copy(c.snap[len(xs):], ys)
			c.snapped = true
		}
	}
	if iter < c.cfg.MinIters {
		return false
	}
	switch {
	case overflow <= c.cfg.StopOverflow:
		c.stop = StopTarget
	case c.cfg.PlateauIters > 0 && iter-c.bestIter >= c.cfg.PlateauIters:
		c.stop = StopPlateau
	case c.snapped && c.lambda >= lambdaStopGrowth*c.bestLambda:
		c.stop = StopLambda
	default:
		return false
	}
	return true
}

// round records a padding round at iteration iter. λ carries over; the
// best iterate starts afresh from the round.
func (c *control) round(iter int) {
	c.rounds++
	c.best, c.bestIter, c.snapped = math.Inf(1), iter, false
}

// adapt applies the λ schedule after the step of an iteration at HPWL hpwl:
// full LambdaMu growth while HPWL is steady, down to 1/LambdaMu when
// wirelength degrades faster than 3 % per iteration (density force
// dominating). The 3 % reference still lets the necessary spreading-phase
// HPWL growth happen.
func (c *control) adapt(hpwl float64) {
	ref := 0.03 * math.Max(hpwl, 1e-9)
	arg := geom.Clamp(1-(hpwl-c.prevHPWL)/ref, -1, 1)
	c.lambda *= math.Pow(c.cfg.LambdaMu, arg)
	c.prevHPWL = hpwl
}

// restore reports whether the run, ending at overflow, hands back the best
// iterate since the last round instead: it does when that iterate was
// snapped and the final overflow is more than restoreSlack worse.
func (c *control) restore(overflow float64) bool {
	return c.snapped && overflow > c.best*restoreSlack
}
