package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// envBlock records where and how a result file was measured, so two files
// are only compared knowingly across machines or settings.
type envBlock struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
}

func captureEnv(seed int64, seconds float64, workers, repeat int) envBlock {
	return envBlock{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  gitCommit(),
		Seed:       seed,
		Seconds:    seconds,
		Repeat:     repeat,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git repository
// (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  envBlock     `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return f, nil
}

// sideSamples holds, per workload and metric, the values of the untraced runs
// of one result file, and the op counts per workload.
type sideSamples struct {
	values map[string]map[string][]float64 // workload → metric → samples
	total  map[string]int
	failed map[string]int
}

func gather(f *resultFile) sideSamples {
	s := sideSamples{values: map[string]map[string][]float64{}, total: map[string]int{}, failed: map[string]int{}}
	for _, r := range f.Runs {
		s.total[r.Workload] += r.OpsTotal
		s.failed[r.Workload] += r.OpsFail
		if r.Traced {
			continue
		}
		m := s.values[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			s.values[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v)
		}
	}
	return s
}

// verdict is the outcome of comparing one (workload, metric) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "MISSING"
)

// judge applies a metric's direction and bound to the two sides' samples:
// regression when the new median is worse than the old by more than the
// bound; unresolved when the baseline's own inter-quartile spread exceeds
// the bound (the data cannot show "unchanged"); missing when a side has
// no sample. A single sample per side has no spread and is judged on the
// medians alone.
func judge(m metricDef, old, new []float64) verdict {
	if len(old) == 0 || len(new) == 0 {
		return verdictMissing
	}
	mo, mn := median(old), median(new)
	if len(old) >= 2 && spread(old) > m.Bound {
		return verdictUnresolved
	}
	worse := mn - mo
	if m.Better == higher {
		worse = mo - mn
	}
	if worse > m.Bound*math.Abs(mo) {
		return verdictRegression
	}
	return verdictOK
}

// compareFiles prints one row per (workload, end-to-end metric) with each
// side's median and quartiles and the verdict. It returns 1 on any
// regression or missing row, or when a workload's failed/attempted share
// grew; unresolved rows are reported but do not fail the comparison.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldF, err := loadResultFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newF, err := loadResultFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if oldF.Env.CPUModel != newF.Env.CPUModel || oldF.Env.NProc != newF.Env.NProc ||
		oldF.Env.Seconds != newF.Env.Seconds || oldF.Env.Seed != newF.Env.Seed {
		fmt.Fprintf(w, "# warning: environments differ: %+v vs %+v\n", oldF.Env, newF.Env)
	}
	bad := compareSides(w, gather(oldF), gather(newF))
	if bad {
		return 1
	}
	return 0
}

func compareSides(w io.Writer, old, new sideSamples) (bad bool) {
	fmt.Fprintf(w, "%-18s %-10s %14s %25s %14s %25s %8s  %s\n",
		"workload", "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "change", "verdict")
	for _, wl := range sortedKeys(old.values) {
		for _, m := range endToEnd {
			o, n := old.values[wl][m.Name], new.values[wl][m.Name]
			v := judge(m, o, n)
			if v == verdictRegression || v == verdictMissing {
				bad = true
			}
			fmt.Fprintf(w, "%-18s %-10s %14.6g %25s %14.6g %25s %+7.2f%%  %s\n",
				wl, m.Name, median(o), quartileText(o), median(n), quartileText(n),
				100*(median(n)-median(o))/math.Abs(median(o)), v)
		}
		// A larger failed share is a regression whatever the timings say.
		if new.total[wl] == 0 || float64(new.failed[wl])*float64(old.total[wl]) > float64(old.failed[wl])*float64(new.total[wl]) {
			fmt.Fprintf(w, "%-18s ops_failed %d/%d -> %d/%d  %s\n", wl,
				old.failed[wl], old.total[wl], new.failed[wl], new.total[wl], verdictRegression)
			bad = true
		}
	}
	return bad
}

func quartileText(v []float64) string {
	if len(v) < 2 {
		return "[-, -]"
	}
	q1, q3 := quartiles(v)
	return fmt.Sprintf("[%.6g, %.6g]", q1, q3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
