package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	rdx "repro"
	rdxreport "repro/internal/report"
	"repro/internal/wire"
)

// profileDigest fingerprints a wire-form profile: every histogram
// bucket, counter, attribution row and the cycle account, bit for bit.
// StateBytes is left out because it reports allocated capacity, which
// depends on slice growth history rather than on the profile.
func profileDigest(r *wire.Result) ([32]byte, error) {
	c := *r
	c.StateBytes = 0
	c.Final = true
	b, err := json.Marshal(&c)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encoding profile: %w", err)
	}
	return sha256.Sum256(b), nil
}

// localDigest fingerprints an in-process profile the way profileDigest
// fingerprints the daemon's.
func localDigest(r *rdx.Result) ([32]byte, error) {
	return profileDigest(rdx.ResultToRemote(r))
}

// multiDigest fingerprints a merged multithreaded profile: the merged
// histograms, attribution and totals plus every thread's profile.
func multiDigest(m *rdx.MultiResult) ([32]byte, error) {
	threads := make([][32]byte, len(m.Threads))
	for i, t := range m.Threads {
		d, err := localDigest(t)
		if err != nil {
			return [32]byte{}, err
		}
		threads[i] = d
	}
	b, err := json.Marshal(struct {
		RD, RT                       *rdx.Histogram
		Attribution                  []rdx.PairStat
		Accesses, Samples, ReusePair uint64
		Threads                      [][32]byte
	}{m.ReuseDistance, m.ReuseTime, m.Attribution, m.Accesses, m.Samples, m.ReusePairs, threads})
	if err != nil {
		return [32]byte{}, fmt.Errorf("encoding merged profile: %w", err)
	}
	return sha256.Sum256(b), nil
}

// exactDigest fingerprints a ground-truth measurement. StateBytes is
// left out for the same reason as in profileDigest.
func exactDigest(e *rdx.ExactResult) ([32]byte, error) {
	b, err := json.Marshal(struct {
		RD, RT           *rdx.Histogram
		Accesses, Blocks uint64
	}{e.ReuseDistance, e.ReuseTime, e.Accesses, e.DistinctBlocks})
	if err != nil {
		return [32]byte{}, fmt.Errorf("encoding exact result: %w", err)
	}
	return sha256.Sum256(b), nil
}

// checkExact checks the invariants every exact measurement of n
// accesses holds: one reuse-distance observation per access, and one
// cold (infinite-distance) observation per distinct block.
func checkExact(e *rdx.ExactResult, n uint64) error {
	if e.Accesses != n {
		return fmt.Errorf("exact measured %d accesses, stream has %d", e.Accesses, n)
	}
	if got := e.ReuseDistance.Total(); got != float64(n) {
		return fmt.Errorf("exact histogram holds %v observations, stream has %d accesses", got, n)
	}
	if got := e.ReuseDistance.Cold(); got != float64(e.DistinctBlocks) {
		return fmt.Errorf("exact histogram holds %v cold accesses, stream has %d distinct blocks", got, e.DistinctBlocks)
	}
	return nil
}

// whatIfReply is the part of a POST /whatif reply the benchmark checks.
type whatIfReply struct {
	Schema string          `json:"schema"`
	Token  string          `json:"token"`
	Report json.RawMessage `json:"report"`
}

// checkWhatIf checks one POST /whatif reply: status 200, the versioned
// report schema, the session it asked about, and a report body.
func checkWhatIf(status int, body []byte, token string) error {
	if status != 200 {
		return fmt.Errorf("whatif: status %d: %s", status, bytes.TrimSpace(body))
	}
	var r whatIfReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("whatif: decoding reply: %w", err)
	}
	if r.Schema != rdxreport.SchemaVersion {
		return fmt.Errorf("whatif: schema %q, want %q", r.Schema, rdxreport.SchemaVersion)
	}
	if r.Token != token {
		return fmt.Errorf("whatif: reply for session %q, asked about %q", r.Token, token)
	}
	if len(r.Report) == 0 || string(r.Report) == "null" {
		return fmt.Errorf("whatif: reply carries no report")
	}
	return nil
}
