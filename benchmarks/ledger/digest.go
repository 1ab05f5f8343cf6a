package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// records is a campaign file parsed into canonical records keyed by
// "type:id": "campaign" for the journal header, "exp:<id>" and
// "quarantine:<id>" for journal records, "trace:<id>" for propagation
// traces (which carry no type field). Dups counts keys seen more than
// once; a merged journal must hold every record exactly once.
type records struct {
	byKey map[string]string
	dups  int
}

// parseRecords reads JSON lines and canonicalizes each record, so the
// digest depends on record content only: not on line order, key order
// within a record or whitespace.
func parseRecords(r io.Reader) (*records, error) {
	rs := &records{byKey: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("bad record %.80q: %v", line, err)
		}
		canon, err := json.Marshal(rec) // map keys marshal sorted
		if err != nil {
			return nil, err
		}
		key := recordKey(rec)
		if _, seen := rs.byKey[key]; seen {
			rs.dups++
		}
		rs.byKey[key] = string(canon)
	}
	return rs, sc.Err()
}

func recordKey(rec map[string]any) string {
	typ, _ := rec["type"].(string)
	if typ == "" {
		typ = "trace"
	}
	if id, ok := rec["id"]; ok {
		return fmt.Sprintf("%s:%v", typ, id)
	}
	return typ
}

// digest hashes the canonical records in key order.
func (rs *records) digest() string {
	keys := make([]string, 0, len(rs.byKey))
	for k := range rs.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00%s\n", k, rs.byKey[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// count returns how many records carry the given type.
func (rs *records) count(typ string) int {
	n := 0
	for k := range rs.byKey {
		if strings.HasPrefix(k, typ+":") {
			n++
		}
	}
	return n
}

// diff counts the keys whose records differ between a and b, including
// keys present on one side only.
func diff(a, b *records) int {
	n := 0
	for k, v := range a.byKey {
		if w, ok := b.byKey[k]; !ok || w != v {
			n++
		}
	}
	for k := range b.byKey {
		if _, ok := a.byKey[k]; !ok {
			n++
		}
	}
	return n
}

// combine folds per-campaign digests, in workload order, into one.
func combine(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}
