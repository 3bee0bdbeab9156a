package puffer

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"puffer/internal/padding"
	"puffer/internal/router"
	"puffer/internal/wirelength"
	"puffer/pipeline"
)

// The knob census (ROADMAP item 10, DESIGN.md §3l): every settable leaf of
// the algorithm-side configuration has exactly one row below saying why it
// is a field and not a constant, and TestKnobCensus checks each row's
// evidence against the tree. A field with no row, a row with no field, or
// evidence that stopped mentioning its field fails the test — so a new knob
// arrives with a setter on a non-test path, or not at all.
//
// Classes:
//
//	set        a non-test file outside benchmark/ and outside the package
//	           that declares the field assigns it (a package's own
//	           DefaultConfig is not a setter)
//	wire       a padding.Strategy field: reachable from strategy JSON and
//	           the exploration search space, frozen with serve.EngineVersion
//	reference  a _test.go file sets a non-default value as an oracle or to
//	           isolate an effect
//	held       inert, kept only because a file under the frozen benchmark/
//	           names it — delete with ROADMAP item 9
//	pending    a ROADMAP item owns the keep-or-delete decision
type knob struct {
	field string // path from the root: "Place.Seed", "Route.PinCost", "Model.Kind"
	class string
	where string // evidence file, or the ROADMAP item number for pending; empty for wire
	// mention, when set, is literal text the evidence file must contain in
	// place of an assignment to the field (a zero-value composite literal
	// sets every field without naming one).
	mention string
}

// zeroRouteCfg is how internal/serve sets the router's cost weights: routed
// jobs run pipeline.Route(router.Config{}), i.e. every weight 0, next to the
// DefaultConfig the CLIs and experiments route with.
const zeroRouteCfg = "pipeline.Route(router.Config{})"

var knobCensus = []knob{
	// pipeline.Config.Place — place.Config
	{field: "Place.GridM", class: "set", where: "internal/eco/session.go"},
	{field: "Place.GridN", class: "set", where: "internal/eco/session.go"},
	{field: "Place.TargetDensity", class: "reference", where: "internal/place/place_test.go"},
	{field: "Place.MaxIters", class: "set", where: "internal/serve/local.go"},
	{field: "Place.StopOverflow", class: "set", where: "internal/baseline/baseline.go"},
	{field: "Place.MinIters", class: "set", where: "internal/eco/session.go"},
	{field: "Place.PlateauIters", class: "set", where: "internal/baseline/baseline.go"},
	{field: "Place.LambdaMu", class: "set", where: "internal/baseline/baseline.go"},
	{field: "Place.WLModel", class: "held", where: "benchmark/kernels.go"},
	{field: "Place.QuadraticInit", class: "pending", where: "5"},
	{field: "Place.WarmStart", class: "set", where: "internal/eco/session.go"},
	{field: "Place.Seed", class: "set", where: "internal/serve/local.go"},
	{field: "Place.Workers", class: "set", where: "pipeline/pipeline.go"},

	// pipeline.Config.Strategy — padding.Strategy with cong.Params and
	// feature.Params
	{field: "Strategy.Weights", class: "wire"},
	{field: "Strategy.Beta", class: "wire"},
	{field: "Strategy.Mu", class: "wire"},
	{field: "Strategy.Smooth", class: "wire"},
	{field: "Strategy.Zeta", class: "wire"},
	{field: "Strategy.PuLow", class: "wire"},
	{field: "Strategy.PuHigh", class: "wire"},
	{field: "Strategy.Tau", class: "wire"},
	{field: "Strategy.Eta", class: "wire"},
	{field: "Strategy.MaxIters", class: "wire"},
	{field: "Strategy.CooldownIters", class: "wire"},
	{field: "Strategy.Cong.PinPenalty", class: "wire"},
	{field: "Strategy.Cong.ExpandRadius", class: "wire"},
	{field: "Strategy.Cong.TransferRatio", class: "wire"},
	{field: "Strategy.Cong.CongestThreshold", class: "wire"},
	{field: "Strategy.Cong.Workers", class: "wire"},
	{field: "Strategy.Feat.KernelMargin", class: "wire"},
	{field: "Strategy.Feat.ZSamples", class: "wire"},
	{field: "Strategy.Feat.Workers", class: "wire"},
	{field: "Strategy.Theta", class: "wire"},
	{field: "Strategy.NetWeightGain", class: "wire"},

	// pipeline.Config.Legal / .DP / flow level
	{field: "Legal.Theta", class: "set", where: "pipeline/stages.go"},
	{field: "Legal.MaxUtil", class: "reference", where: "internal/legal/legal_test.go"},
	{field: "Legal.InheritPadding", class: "set", where: "internal/baseline/baseline.go"},
	{field: "DP.Passes", class: "set", where: "internal/baseline/baseline.go"},
	{field: "DP.WindowSites", class: "set", where: "internal/baseline/baseline.go"},
	{field: "DP.PreservePadding", class: "reference", where: "internal/dp/dp_test.go"},
	{field: "Workers", class: "set", where: "internal/serve/local.go"},

	// router.Config
	{field: "Route.GridW", class: "set", where: "pipeline/stages.go"},
	{field: "Route.GridH", class: "set", where: "pipeline/stages.go"},
	{field: "Route.MaxRipup", class: "set", where: "internal/baseline/baseline.go"},
	{field: "Route.HistoryGain", class: "set", where: "internal/serve/local.go", mention: zeroRouteCfg},
	{field: "Route.CongestWeight", class: "set", where: "internal/serve/local.go", mention: zeroRouteCfg},
	{field: "Route.BendPenalty", class: "set", where: "internal/serve/local.go", mention: zeroRouteCfg},
	{field: "Route.WindowMargin", class: "reference", where: "internal/router/router_test.go"},
	{field: "Route.PinCost", class: "reference", where: "internal/router/router_test.go"},
	{field: "Route.PatternFirst", class: "reference", where: "internal/router/pattern_test.go"},
	{field: "Route.Workers", class: "set", where: "pipeline/stages.go"},

	// wirelength.Model's exported fields
	{field: "Model.Gamma", class: "set", where: "internal/place/place.go"},
	{field: "Model.Kind", class: "held", where: "benchmark/kernels.go"},
}

// knobLeaves walks t's exported fields, descending into nested structs and
// skipping json:"-" wiring (recorders, log sinks, caches), and records each
// leaf's path with the directory of the package declaring it.
func knobLeaves(prefix string, t reflect.Type, out map[string]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			knobLeaves(prefix+f.Name+".", f.Type, out)
			continue
		}
		out[prefix+f.Name] = strings.TrimPrefix(t.PkgPath(), "puffer/")
	}
}

func TestKnobCensus(t *testing.T) {
	leaves := map[string]string{}
	knobLeaves("", reflect.TypeOf(pipeline.Config{}), leaves)
	knobLeaves("Route.", reflect.TypeOf(router.Config{}), leaves)
	knobLeaves("Model.", reflect.TypeOf(wirelength.Model{}), leaves)

	var strategyJSON map[string]any
	if b, err := json.Marshal(padding.DefaultStrategy()); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &strategyJSON); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, k := range knobCensus {
		declDir, ok := leaves[k.field]
		if !ok {
			t.Errorf("%s: stale row, no such field", k.field)
			continue
		}
		if seen[k.field] {
			t.Errorf("%s: more than one row", k.field)
		}
		seen[k.field] = true
		leaf := k.field[strings.LastIndex(k.field, ".")+1:]
		// An assignment, tuple assignment or keyed-literal entry of leaf.
		assigns := regexp.MustCompile(`\b` + leaf + `\b[^=\n]*[^=!<>:\n]=[^=]|\b` + leaf + `:`)

		var src string
		if k.class != "wire" && k.class != "pending" {
			b, err := os.ReadFile(filepath.FromSlash(k.where))
			if err != nil {
				t.Errorf("%s: evidence: %v", k.field, err)
				continue
			}
			src = string(b)
		}
		isTest := strings.HasSuffix(k.where, "_test.go")
		switch k.class {
		case "set":
			if isTest || strings.HasPrefix(k.where, "benchmark/") || filepath.ToSlash(filepath.Dir(k.where)) == declDir {
				t.Errorf("%s: a setter is a non-test file outside benchmark/ and outside %s, not %s", k.field, declDir, k.where)
			}
			if k.mention != "" {
				if !strings.Contains(src, k.mention) {
					t.Errorf("%s: %s no longer contains %q", k.field, k.where, k.mention)
				}
			} else if !assigns.MatchString(src) {
				t.Errorf("%s: %s no longer assigns %s", k.field, k.where, leaf)
			}
		case "wire":
			node, path := any(strategyJSON), strings.Split(k.field, ".")
			if path[0] != "Strategy" {
				t.Errorf("%s: wire is for padding.Strategy fields", k.field)
				continue
			}
			for _, key := range path[1:] {
				m, _ := node.(map[string]any)
				if node, ok = m[key]; !ok {
					t.Errorf("%s: not in the strategy JSON document", k.field)
					break
				}
			}
		case "reference":
			if !isTest {
				t.Errorf("%s: a reference is a _test.go file, not %s", k.field, k.where)
			}
			if !assigns.MatchString(src) {
				t.Errorf("%s: %s no longer sets %s", k.field, k.where, leaf)
			}
		case "held":
			if !strings.HasPrefix(k.where, "benchmark/") {
				t.Errorf("%s: held is for readers under benchmark/, not %s", k.field, k.where)
			}
			if !regexp.MustCompile(`\b` + leaf + `\b`).MatchString(src) {
				t.Errorf("%s: %s no longer names %s; delete the field", k.field, k.where, leaf)
			}
		case "pending":
			// where is the owning item's number at the time of writing; a
			// re-anchor may renumber it, so only the mention is checked.
			roadmap, err := os.ReadFile("ROADMAP.md")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(roadmap), leaf) {
				t.Errorf("%s: ROADMAP.md no longer mentions %s (was item %s); decide it", k.field, leaf, k.where)
			}
		default:
			t.Errorf("%s: unknown class %q", k.field, k.class)
		}
	}
	for f := range leaves {
		if !seen[f] {
			t.Errorf("%s: settable field with no census row (knobs_test.go): name its setter on a non-test path, or make it a constant", f)
		}
	}
}
