package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
)

// expectedJSON holds the recorded deterministic records: for each recorded
// seed and workload, one opRecord per operation in pass order.
//
//go:embed expected.json
var expectedJSON []byte

type expectations struct {
	// TuningSeed is the seed the benchmark was tuned on; HeldOutSeed one
	// it was not, so a claimed change can be re-checked on fresh inputs.
	TuningSeed  int64                            `json:"tuning_seed"`
	HeldOutSeed int64                            `json:"held_out_seed"`
	Seeds       map[string]map[string][]opRecord `json:"seeds"`
}

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// lookup returns the recorded records, or nil when the seed has none.
func (e expectations) lookup(seed int64, workload string) []opRecord {
	return e.Seeds[itoa(seed)][workload]
}

// seeds lists the recorded seeds in ascending order.
func (e expectations) seeds() []int64 {
	var out []int64
	for k := range e.Seeds {
		if s, err := strconv.ParseInt(k, 10, 64); err == nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// store writes recs as the records of (seed, workload) into the
// expectations file at path, keeping everything else it holds.
func (e expectations) store(path string, seed int64, workload string, recs []opRecord) error {
	var cur expectations
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &cur); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
	default:
		return err
	}
	if cur.Seeds == nil {
		cur.Seeds = map[string]map[string][]opRecord{}
	}
	if cur.Seeds[itoa(seed)] == nil {
		cur.Seeds[itoa(seed)] = map[string][]opRecord{}
	}
	cur.Seeds[itoa(seed)][workload] = recs
	b, err = json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// itoa formats a seed as an expectations-file key.
func itoa(seed int64) string { return strconv.FormatInt(seed, 10) }
