// Command benchjson converts `go test -bench` output into a JSON report.
//
// -ratio A/B adds a named ns/op ratio of two benchmarks in the input to
// the report; CI uses it to publish the telemetry-overhead factor
// (PlaceIterObsEnabled over PlaceIterObsDisabled) in BENCH_obs.json and
// the GP serial/parallel speedup in BENCH_gp.json. The flag repeats.
//
// Usage:
//
//	go test -run=NONE -bench='BenchmarkLegalize' -benchtime=5x ./internal/legal |
//	    go run ./cmd/benchjson -out BENCH_legal.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	CPU        string      `json:"cpu,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Ratios holds the -ratio A/B results, keyed "A/B": ns/op of A
	// divided by ns/op of B.
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

// ratioFlags collects repeated -ratio A/B values.
type ratioFlags []string

func (r *ratioFlags) String() string { return strings.Join(*r, ",") }

func (r *ratioFlags) Set(v string) error {
	if a, b, ok := strings.Cut(v, "/"); !ok || a == "" || b == "" {
		return fmt.Errorf("want A/B, got %q", v)
	}
	*r = append(*r, v)
	return nil
}

func main() {
	out := flag.String("out", "-", "output JSON file (- for stdout)")
	var ratios ratioFlags
	flag.Var(&ratios, "ratio", "emit ns/op ratio of two benchmarks as A/B (repeatable)")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines in input")
	}

	nsPerOp := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		nsPerOp[b.Name] = b.NsPerOp
	}
	for _, r := range ratios {
		a, b, _ := strings.Cut(r, "/")
		na, nb := nsPerOp[a], nsPerOp[b]
		if na <= 0 || nb <= 0 {
			log.Fatalf("benchjson: -ratio %s: benchmark %q or %q missing from input", r, a, b)
		}
		if rep.Ratios == nil {
			rep.Ratios = make(map[string]float64, len(ratios))
		}
		rep.Ratios[r] = na / nb
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks", *out, len(rep.Benchmarks))
	for _, r := range ratios {
		fmt.Printf(", %s=%.3f", r, rep.Ratios[r])
	}
	fmt.Println(")")
}

// parse consumes `go test -bench` output: header lines (goos/goarch/cpu)
// and result lines of the form
//
//	BenchmarkName[-P]  N  V ns/op  [V unit]...
func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix, keeping dashes inside the name.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", f[i], line)
			}
			if f[i+1] == "ns/op" {
				b.NsPerOp = v
			} else {
				b.Metrics[f[i+1]] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
