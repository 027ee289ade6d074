package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"

	"spatialrepart/internal/grid"
)

// fingerprintsJSON records the fingerprints of the full-size inputs — each
// workload's dataset, and the ingest feed of seeds 0..31 — so a change to
// internal/datagen cannot quietly change what a workload measures.
// Regenerate with -fingerprints 32 only when an input change is intended.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

// checkInputs compares the instance's input fingerprint with the recorded
// one. A mismatch fails the run; a seed or size with no record is reported
// as unrecorded.
func checkInputs(in instance, t *tally) string {
	key, digest := in.inputs()
	var known map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &known); err != nil {
		t.fail("fingerprint table: %v", err)
		return key + " " + digest
	}
	want, ok := known[key]
	switch {
	case !ok:
		return key + " " + digest + " (unrecorded)"
	case want != digest:
		t.fail("inputs %s: fingerprint %s, recorded %s", key, digest, want)
		return key + " " + digest + " (MISMATCH)"
	}
	return key + " " + digest + " (matches record)"
}

func printFingerprints(n int, stdout, stderr io.Writer) int {
	table := map[string]string{}
	for _, name := range workloadNames() {
		for seed := int64(0); seed < int64(n); seed++ {
			key, digest := workloads[name].inputs(seed, false)
			table[key] = digest
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// digestWriter accumulates a SHA-256 over fixed-width binary fields.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(int64(v)))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) float(v float64) {
	binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// gridDigest fingerprints a grid: shape, attribute schema, validity and the
// bits of every value.
func gridDigest(g *grid.Grid) string {
	d := newDigest()
	d.int(g.Rows)
	d.int(g.Cols)
	for _, a := range g.Attrs {
		d.h.Write([]byte(a.Name))
		d.int(int(a.Agg))
		d.bool(a.Integer)
		d.bool(a.Categorical)
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			valid := g.Valid(r, c)
			d.bool(valid)
			if !valid {
				continue
			}
			for k := range g.Attrs {
				d.float(g.At(r, c, k))
			}
		}
	}
	return d.sum()
}

// recordsDigest fingerprints a record slice.
func recordsDigest(d *digestWriter, recs []grid.Record) {
	d.int(len(recs))
	for _, r := range recs {
		d.float(r.Lat)
		d.float(r.Lon)
		d.int(len(r.Values))
		for _, v := range r.Values {
			d.float(v)
		}
	}
}
