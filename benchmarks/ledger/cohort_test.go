package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func rec(workload string, c cohort, eps float64) runRecord {
	return runRecord{Workload: workload, Cohort: c, Valid: true,
		Metrics: map[string]summary{"experiments_per_s": {N: 5, Median: eps}}}
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	host := cohort{Bench: benchVersion, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", FSType: "ext", Commit: "a"}
	other := host
	other.NProc = 4
	_, err := compareRecords([]runRecord{rec("served", host, 500)}, []runRecord{rec("served", other, 600)})
	if err == nil || !strings.Contains(err.Error(), "cohort mismatch") {
		t.Fatalf("mixed cohorts compared: err = %v", err)
	}
	tmpfs := host
	tmpfs.FSType = "tmpfs"
	if _, err := compareRecords([]runRecord{rec("served", host, 500), rec("served", tmpfs, 500)}, nil); err == nil {
		t.Fatal("a baseline mixing filesystems compared")
	}
}

func TestCompareAcrossCommitsOfOneCohort(t *testing.T) {
	base := cohort{Bench: benchVersion, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", FSType: "ext", Commit: "a"}
	next := base
	next.Commit = "b"
	invalid := rec("served", next, 1)
	invalid.Valid = false
	rows, err := compareRecords(
		[]runRecord{rec("served", base, 400), rec("served", base, 500), rec("served", base, 600)},
		[]runRecord{rec("served", next, 450), invalid})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Base != 500 || rows[0].Latest != 450 || rows[0].LastRuns != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	// experiments_per_s is higher-is-better: 500 -> 450 is 10% worse.
	if !near(rows[0].RegressionPct, 10) {
		t.Errorf("regression = %v%%, want 10%%", rows[0].RegressionPct)
	}
}

func TestCompareRefusesDigestMismatch(t *testing.T) {
	c := cohort{Bench: benchVersion, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", FSType: "ext", Commit: "a"}
	withDigest := func(seed int64, digest string) runRecord {
		r := rec("launch-heavy", c, 300)
		r.Seed, r.Digest = seed, digest
		return r
	}
	// Different seeds may differ; an invalid run's digest is not evidence.
	broken := withDigest(7, "ccc")
	broken.Valid = false
	if _, err := compareRecords([]runRecord{withDigest(7, "aaa"), withDigest(8, "bbb")},
		[]runRecord{withDigest(7, "aaa"), broken}); err != nil {
		t.Fatal(err)
	}
	_, err := compareRecords([]runRecord{withDigest(7, "aaa")}, []runRecord{withDigest(7, "bbb")})
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("one seed with two digests compared: err = %v", err)
	}
}

func TestCompareCarriesEachMetricsBound(t *testing.T) {
	c := cohort{Bench: benchVersion, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", FSType: "ext", Commit: "a"}
	base := rec("served", c, 500)
	base.Metrics["alloc_bytes_per_exp"] = summary{N: 5, Median: 1000}
	latest := rec("served", c, 400)
	latest.Metrics["alloc_bytes_per_exp"] = summary{N: 5, Median: 1150}
	latest.Metrics["shard.batches"] = summary{N: 5, Median: 16}
	rows, err := compareRecords([]runRecord{base}, []runRecord{latest})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want experiments_per_s and alloc_bytes_per_exp only", rows)
	}
	for _, r := range rows {
		switch r.Metric {
		case "experiments_per_s": // 20% worse, within its 25% bound
			if r.Bound != 0.25 || !near(r.RegressionPct, 20) || r.RegressionPct > 100*r.Bound {
				t.Errorf("%+v", r)
			}
		case "alloc_bytes_per_exp": // 15% worse, beyond its 10% bound
			if r.Bound != 0.10 || !near(r.RegressionPct, 15) || r.RegressionPct <= 100*r.Bound {
				t.Errorf("%+v", r)
			}
		default:
			t.Errorf("unexpected row %+v", r)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.jsonl")
	c := hostCohort(t.TempDir())
	for i := 0; i < 2; i++ {
		if err := appendRecord(path, rec("step-heavy", c, float64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Metrics["experiments_per_s"].Median != 51 || got[0].Cohort != c {
		t.Fatalf("read back %+v", got)
	}
}
