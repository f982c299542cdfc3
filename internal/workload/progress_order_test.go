package workload

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"extrareq/internal/apps"
	"extrareq/internal/simmpi"
)

// barrierRing is ringApp whose runs return only once every run counted in
// finished has completed, so the configurations of a campaign finish
// together.
type barrierRing struct {
	ringApp
	finished *sync.WaitGroup
}

func (a barrierRing) Run(cfg apps.Config) ([]simmpi.Result, error) {
	res, err := a.ringApp.Run(cfg)
	a.finished.Done()
	a.finished.Wait()
	return res, err
}

// Progress calls arrive in order even when two configurations finish
// together: a callback that holds back done=1 still delivers it before
// done=2, so a poll of the mirrored count never sees it go backwards.
func TestResilientRunnerProgressOrdered(t *testing.T) {
	var finished sync.WaitGroup
	finished.Add(2)
	var mu sync.Mutex
	var dones []int
	r := &ResilientRunner{
		App:     barrierRing{finished: &finished},
		Workers: 2,
		Progress: func(done, _ int) {
			if done == 1 {
				time.Sleep(50 * time.Millisecond)
			}
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
		},
	}
	grid := Grid{Procs: []int{2}, Ns: []int{32, 64}, Seed: 1}
	if _, _, err := r.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dones, []int{1, 2}) {
		t.Errorf("done values arrived as %v, want [1 2]", dones)
	}
}

// A point set measures exactly its configurations, in the order given,
// and the campaign and report match the whole grid's for those points.
func TestResilientRunnerPoints(t *testing.T) {
	grid := Grid{Procs: []int{2, 4}, Ns: []int{32, 64}, Seed: 5}
	full, fullRep, err := (&ResilientRunner{App: ringApp{}}).Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	pts := [][2]int{{4, 64}, {2, 32}}
	c, rep, err := (&ResilientRunner{App: ringApp{}, Points: pts}).Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0} // (4, 64) and (2, 32) in the whole grid's order
	if len(c.Samples) != len(pts) || rep.Configs != len(pts) {
		t.Fatalf("point set returned %d samples over %d configurations, want %d",
			len(c.Samples), rep.Configs, len(pts))
	}
	for i, j := range want {
		if !reflect.DeepEqual(c.Samples[i], full.Samples[j]) {
			t.Errorf("sample %d = %+v, want the whole grid's %+v", i, c.Samples[i], full.Samples[j])
		}
		if rep.Outcomes[i].P != fullRep.Outcomes[j].P || rep.Outcomes[i].N != fullRep.Outcomes[j].N {
			t.Errorf("outcome %d is (%d, %d), want (%d, %d)", i,
				rep.Outcomes[i].P, rep.Outcomes[i].N, fullRep.Outcomes[j].P, fullRep.Outcomes[j].N)
		}
	}

	for name, bad := range map[string][][2]int{
		"empty":     {},
		"off-grid":  {{2, 32}, {8, 32}},
		"duplicate": {{2, 32}, {2, 32}},
	} {
		if _, _, err := (&ResilientRunner{App: ringApp{}, Points: bad}).Run(context.Background(), grid); err == nil {
			t.Errorf("%s point set was accepted", name)
		}
	}
}
