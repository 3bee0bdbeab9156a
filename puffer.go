// Package puffer is the public API of the PUFFER routability-driven
// placement framework (Cai et al., DAC 2023 — "PUFFER: A Routability-
// Driven Placement Framework via Cell Padding with Multiple Features and
// Strategy Exploration").
//
// The flow (paper Fig. 2) has three stages:
//
//  1. Global placement on an electrostatic engine (ePlace-style Nesterov
//     iterations with WA wirelength and a spectral density solve).
//  2. A routability optimizer, triggered while cells spread, that
//     estimates congestion by imitating routing detours and clustered-cell
//     spreading, extracts local / CNN-inspired / GNN-inspired features,
//     and pads cells with recycling and utilization control.
//  3. White-space-assisted legalization that inherits the padding,
//     discretized to whole sites, then legalizes with an Abacus-based
//     algorithm.
//
// Run executes that default flow in one call and is kept source-compatible
// across releases: its signature, Config and Result fields, and StageLog
// line formats are stable — except that a Config field no caller ever set
// is retired rather than carried (the density-pyramid level, and the
// filler switch, trace cap, congestion-grid override and second wirelength
// model of the knob census; DESIGN.md §3l names them and the rule). Callers that need cancellation, deadlines,
// per-stage statistics, custom stage lists, or checkpoint/resume should use
// RunCtx or the pipeline package directly — Config and Result are aliases
// of the pipeline types, so values move freely between the two APIs.
//
// Strategy parameters can be hand-set (padding.DefaultStrategy) or
// searched with the Bayesian strategy exploration in internal/explore via
// ExploreStrategy. Placements are judged by the built-in evaluation
// global router (Evaluate), which reports the HOF/VOF/WL metrics of the
// paper's Table II.
package puffer

import (
	"context"
	"fmt"

	"puffer/internal/netlist"
	"puffer/internal/router"
	"puffer/pipeline"
)

// Config configures the full PUFFER flow. It is an alias of
// pipeline.Config.
type Config = pipeline.Config

// Result reports a finished PUFFER run. It is an alias of pipeline.Result.
type Result = pipeline.Result

// ErrCanceled is wrapped by every error a canceled RunCtx returns.
var ErrCanceled = pipeline.ErrCanceled

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// CongGridFor picks the default congestion/routing grid for a design:
// roughly two placement rows per Gcell, clamped to a practical range.
func CongGridFor(d *netlist.Design) (int, int) { return pipeline.GridFor(d) }

// Run executes the full PUFFER flow on d, mutating cell positions and
// padding in place. It is the uncancelable compatibility wrapper over the
// default pipeline; see RunCtx for the context-aware form.
func Run(d *netlist.Design, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), d, cfg)
}

// RunCtx is Run with cancellation and deadline support: the context is
// observed within one Nesterov iteration, optimizer call, legalization
// batch, or detailed-placement pass. On cancellation the design is left in
// a valid (though unfinished) state and the returned error wraps
// ErrCanceled inside a pipeline.StageError naming the interrupted stage;
// the partial Result is still returned.
func RunCtx(ctx context.Context, d *netlist.Design, cfg Config) (*Result, error) {
	res, err := pipeline.Execute(ctx, d, cfg)
	if err != nil {
		if res == nil {
			return nil, fmt.Errorf("puffer: %w", err)
		}
		return res, fmt.Errorf("puffer: %w", err)
	}
	return res, nil
}

// Evaluate routes the placed design with the evaluation global router and
// returns its congestion report (HOF%, VOF%, routed wirelength) — the
// stand-in for the commercial global router of the paper's Sec. IV.
func Evaluate(d *netlist.Design, cfg router.Config) *router.Result {
	return router.Route(d, cfg)
}

// EvalConfig returns the default evaluation-router configuration.
func EvalConfig() router.Config { return router.DefaultConfig() }
