package main

import (
	"strings"
	"testing"
)

const journal = `{"type":"campaign","app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","bits":1,"runs":3,"seed":7}
{"type":"exp","id":0,"cycle":120,"bits":[5],"effect":"Masked","cycles":1685,"injected":true}
{"type":"exp","id":2,"cycle":300,"bits":[9],"effect":"SDC","cycles":1685,"injected":true}
{"type":"exp","id":1,"cycle":200,"bits":[1],"effect":"Masked","cycles":1700,"injected":true}
`

func mustParse(t *testing.T, s string) *records {
	t.Helper()
	rs, err := parseRecords(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestDigestIgnoresRecordAndKeyOrder(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(journal), "\n")
	reordered := strings.Join([]string{lines[3], lines[1], lines[0], lines[2]}, "\n")
	// Same content, keys in another order and other spacing.
	rekeyed := strings.Replace(journal,
		`{"type":"exp","id":0,"cycle":120,"bits":[5],"effect":"Masked","cycles":1685,"injected":true}`,
		`{"injected":true, "cycles":1685, "effect":"Masked", "bits":[5], "cycle":120, "id":0, "type":"exp"}`, 1)
	want := mustParse(t, journal).digest()
	for name, s := range map[string]string{"reordered": reordered, "rekeyed": rekeyed} {
		if got := mustParse(t, s).digest(); got != want {
			t.Errorf("%s journal digests to %s, want %s", name, got, want)
		}
	}
}

func TestDigestSeesChangedRecords(t *testing.T) {
	base := mustParse(t, journal)
	for name, s := range map[string]string{
		"effect": strings.Replace(journal, `"effect":"SDC"`, `"effect":"Masked"`, 1),
		"header": strings.Replace(journal, `"seed":7`, `"seed":8`, 1),
		"number": strings.Replace(journal, `"cycles":1700`, `"cycles":1701`, 1),
		"drop":   strings.Join(strings.Split(journal, "\n")[:3], "\n"),
	} {
		other := mustParse(t, s)
		if other.digest() == base.digest() {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
		if diff(base, other) != 1 {
			t.Errorf("changing the %s: diff = %d records, want 1", name, diff(base, other))
		}
	}
}

func TestRecordsCountDuplicatesAndTypes(t *testing.T) {
	dup := journal + `{"type":"exp","id":1,"cycle":200,"bits":[1],"effect":"Masked","cycles":1700,"injected":true}` + "\n"
	rs := mustParse(t, dup)
	if rs.dups != 1 {
		t.Errorf("dups = %d, want 1", rs.dups)
	}
	if n := rs.count("exp"); n != 3 {
		t.Errorf("exp records = %d, want 3", n)
	}
	traces := mustParse(t, `{"id":4,"effect":"Masked","events":[]}`+"\n")
	if _, ok := traces.byKey["trace:4"]; !ok {
		t.Errorf("an untyped record with an id keys as trace:<id>, got %v", traces.byKey)
	}
	if _, err := parseRecords(strings.NewReader("{not json\n")); err == nil {
		t.Error("a malformed record must be an error")
	}
}

func TestJournalStats(t *testing.T) {
	w, err := readJournalStats([]byte(journal))
	if err != nil {
		t.Fatal(err)
	}
	// Suffixes (1685-120) + (1685-300) + (1700-200), plus the prefix up
	// to the latest injection cycle, 300.
	if w.exps != 3 || w.cycles != 1565+1385+1500+300 {
		t.Errorf("stats = %d exps, %v cycles", w.exps, w.cycles)
	}
}

func TestCoverageUnionsOverlaps(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {-5, 2}}
	if got := coverage(ivs, 0, 28); got != 15+8 {
		t.Errorf("coverage = %d, want 23", got)
	}
}
