package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"extrareq/internal/apps"
	"extrareq/internal/profile"
)

// callPathPins are SHA-256 digests of each proxy's call-path attribution at
// two small configurations: the JSON form of the rank-merged profiler plus
// the IEEE-754 bits of every PathSample.PathMetrics value. Any change to the
// profiler's bookkeeping (metric storage, merge order, key presence) or to
// the simulated runs that alters a single bit shows up here.
var callPathPins = map[string][2]string{
	"Kripke": {
		"f2e1631018352d8dc61096c5c3662dd5a33f197de220cbcac233b2f43b0ea63b",
		"f12bd699aa1fc1cc90da21cc7b59c14af1be0ff74fcde988d6517f63d4042dd5",
	},
	"LULESH": {
		"9f1faa6d6756a9168e7889decce40a61d0dfdb4643a94abeeefb417c436aa0a3",
		"6eee0386af8f0fea84a3e3c4626381466ad3d6fc894fac400185f9d7ce19f804",
	},
	"MILC": {
		"cf9b60f1953cc39b70049ec08504b24de8cc11eb31892679c8c4f16c81362d74",
		"6e2c7dfc7835e892a8cc09fea117bb42fbc4cd34ef0d60ea0671f01b405c7e82",
	},
	"Relearn": {
		"5b48152132da7034ed690e127ae3c8d048de8492926923358cf5c35b5af499d5",
		"ee92fc616074bc9c7baa9db0b77e4b03702558e5a5efcdce661ca2f0df5eced8",
	},
	"icoFoam": {
		"fb61af560255c8560eb6b65d1846c5425aa20f0038787516b29a0409e54cb6c9",
		"143d237bd6e72d1489fc74f816cfb42b7d1caa397dd656bf05f596d4f443f77b",
	},
}

var callPathPinConfigs = [2]apps.Config{
	{Procs: 4, N: 64, Seed: 1},
	{Procs: 6, N: 160, Seed: 42},
}

func callPathDigest(t *testing.T, app apps.App, cfg apps.Config) string {
	t.Helper()
	results, err := app.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := profile.New()
	for _, r := range results {
		merged.Merge(r.Profile)
	}
	js, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunWithPaths(app, Grid{Procs: []int{cfg.Procs}, Ns: []int{cfg.N}, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	var buf [8]byte
	pm := c.Samples[0].PathMetrics
	paths := make([]string, 0, len(pm))
	for p := range pm {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "|%s", p)
		names := make([]string, 0, len(pm[p]))
		for m := range pm[p] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			fmt.Fprintf(h, "|%s=", m)
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pm[p][m]))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCallPathAttributionPinned pins call-path attribution bit for bit.
func TestCallPathAttributionPinned(t *testing.T) {
	for _, app := range apps.All() {
		want, ok := callPathPins[app.Name()]
		if !ok {
			t.Fatalf("no pin for %s", app.Name())
		}
		for i, cfg := range callPathPinConfigs {
			if got := callPathDigest(t, app, cfg); got != want[i] {
				t.Errorf("%s %v: call-path digest %s, want %s", app.Name(), cfg, got, want[i])
			}
		}
	}
}
