package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchVersion names the workload definitions. Records made with a
// different version measured different work and never compare.
const benchVersion = "ledger/1"

// cohort tags a record with what its numbers depend on besides the code
// under test. Records compare only within one cohort; Commit is carried
// along as the record's identity but is what a comparison varies.
type cohort struct {
	Bench      string `json:"bench"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	FSType     string `json:"fs_type"`
	Commit     string `json:"commit"`
}

func hostCohort(storeDir string) cohort {
	return cohort{
		Bench:      benchVersion,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FSType:     fsType(storeDir),
		Commit:     gitCommit("."),
	}
}

// key is the comparison domain: every tag except the commit.
func (c cohort) key() string {
	return fmt.Sprintf("%s nproc=%d gomaxprocs=%d %s fs=%s",
		c.Bench, c.NProc, c.GOMAXPROCS, c.GoVersion, c.FSType)
}

// gitCommit reads HEAD from a .git directory without running git; a
// checkout without one (an exported tree) reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// runRecord is one run's line in a trajectory file: its cohort, whether
// it passed the correctness gate, its digest and every metric's summary.
type runRecord struct {
	Time     string             `json:"time"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Cohort   cohort             `json:"cohort"`
	Valid    bool               `json:"valid"`
	Digest   string             `json:"digest"`
	Metrics  map[string]summary `json:"metrics"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %v", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %v", err)
	}
	return f.Close()
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// comparison is one workload x metric row of a baseline/latest compare.
type comparison struct {
	Workload, Metric   string
	Base, Latest       float64 // median of the valid runs' medians
	BaseRuns, LastRuns int
	RegressionPct      float64 // positive = worse, in the metric's direction
	Bound              float64 // the metric's bound, as a share
}

// compareRecords compares the end-to-end metrics of the valid untraced
// runs of latest against baseline, workload by workload. It refuses
// records from more than one cohort: numbers from different hosts,
// toolchains, filesystems or workload definitions are not comparable,
// and averaging across them would hide exactly the changes a trajectory
// is kept to show. It also refuses valid records of one workload and seed
// whose digests differ, traced or not and on either side: the same seed
// must reproduce the same journals.
func compareRecords(base, latest []runRecord) ([]comparison, error) {
	all := append(append([]runRecord(nil), base...), latest...)
	var key string
	for _, r := range all {
		if key == "" {
			key = r.Cohort.key()
		} else if k := r.Cohort.key(); k != key {
			return nil, fmt.Errorf("cohort mismatch: %q vs %q; compare only runs of one cohort", key, k)
		}
	}
	type runKey struct {
		workload string
		seed     int64
	}
	digests := map[runKey]string{}
	for _, r := range all {
		if !r.Valid || r.Digest == "" {
			continue
		}
		k := runKey{r.Workload, r.Seed}
		if d, ok := digests[k]; ok && d != r.Digest {
			return nil, fmt.Errorf("digest mismatch: %s at seed %d gave %s and %s; one seed must reproduce its journals", r.Workload, r.Seed, d, r.Digest)
		}
		digests[k] = r.Digest
	}
	collect := func(rs []runRecord) map[[2]string][]float64 {
		out := make(map[[2]string][]float64)
		for _, r := range rs {
			if !r.Valid || r.Trace {
				continue
			}
			for name, s := range r.Metrics {
				out[[2]string{r.Workload, name}] = append(out[[2]string{r.Workload, name}], s.Median)
			}
		}
		return out
	}
	b, l := collect(base), collect(latest)
	var rows []comparison
	for _, d := range endToEnd {
		var wls []string
		for k := range b {
			if k[1] == d.Name && len(l[k]) > 0 {
				wls = append(wls, k[0])
			}
		}
		sort.Strings(wls)
		for _, wl := range wls {
			k := [2]string{wl, d.Name}
			row := comparison{Workload: wl, Metric: d.Name, Bound: d.Bound,
				Base: median(b[k]), Latest: median(l[k]), BaseRuns: len(b[k]), LastRuns: len(l[k])}
			row.RegressionPct = 100 * (row.Latest - row.Base) / row.Base
			if !d.LowerBetter {
				row.RegressionPct = -row.RegressionPct
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-13s %-26s %14s %14s %9s %6s\n", "workload", "metric", "baseline", "latest", "worse%", "bound")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-26s %14.6g %14.6g %+8.2f%% %5.0f%%  (runs %d/%d)\n",
			r.Workload, r.Metric, r.Base, r.Latest, r.RegressionPct, 100*r.Bound, r.BaseRuns, r.LastRuns)
	}
}
