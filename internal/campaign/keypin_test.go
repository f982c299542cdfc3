package campaign

import (
	"testing"

	"extrareq/internal/simmpi"
	"extrareq/internal/workload"
)

// TestKeysPinned pins ComputeKey and ComputePointKey to recorded hex. A
// changed value here orphans every disk and remote cache written by an
// earlier build, so any edit to the hashed strings needs a KeyVersion
// bump, not a new pin.
func TestKeysPinned(t *testing.T) {
	app := testApp(t)
	plan, err := simmpi.ParseFaultSpec("seed=7,kill=0.3,drop=0.001")
	if err != nil {
		t.Fatal(err)
	}
	targeted, err := simmpi.ParseFaultSpec("seed=-3,kill=1@250,perturb=0.02,maxdelay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	grid := workload.Grid{Procs: []int{2, 4, 8}, Ns: []int{64, 128, 256}, Seed: 42}
	cases := []struct {
		name            string
		req             Request
		campaign, point string // point key at (4, 128)
	}{
		{
			name:     "plain",
			req:      Request{App: app, Grid: grid},
			campaign: "4a38749b3bff99618cf94a7d6fc609ceb9a9d4929e54976515f1cf6fd6200ad7",
			point:    "d1565953d0346c8abb9b33c8d2334c4dd242dacc01942fae09eec7f4feaf5fa4",
		},
		{
			name:     "fault plan",
			req:      Request{App: app, Grid: grid, Faults: plan, Retries: 3, MinPoints: 5},
			campaign: "5ed4a0c736cdb39802f7722d3300ff3b9737e69463559f22aded935a2ca34b2c",
			point:    "5f4aa21777be1f7a077d5bd5d3be43dbe254cfe4f08fa2e8a146fdf55cf32920",
		},
		{
			name:     "targeted kill, negative plan seed",
			req:      Request{App: app, Grid: grid, Faults: targeted, Retries: 1},
			campaign: "3e8b502ce89b80207103f6c88825bd1540618361f0987086ee748c3081b4bb15",
			point:    "e826be7ad8633e6fcbbbcead2bacf4e4648d86ba50bdc92c7c3a9dfef92a8f41",
		},
		{
			name:     "inactive plan",
			req:      Request{App: app, Grid: grid, Faults: simmpi.NewFaultPlan(5)},
			campaign: "4a38749b3bff99618cf94a7d6fc609ceb9a9d4929e54976515f1cf6fd6200ad7",
			point:    "d1565953d0346c8abb9b33c8d2334c4dd242dacc01942fae09eec7f4feaf5fa4",
		},
		{
			name: "repeats",
			req: Request{App: app, Grid: workload.Grid{Procs: grid.Procs, Ns: grid.Ns,
				Seed: 42, Repeats: 3}},
			campaign: "4ba1399131fef9f13edb771baba56f5a4470128fcbac8e29048dc95277d89792",
			point:    "b9ba8f1ed62c3a1b60819020ee8b7f82371db25a0d496658d34856d416fb91a9",
		},
		{
			name: "negative seed",
			req: Request{App: app, Grid: workload.Grid{Procs: grid.Procs, Ns: grid.Ns,
				Seed: -9223372036854775808}},
			campaign: "e5fea6f2c1592e91982de8e8790a89fcd04aa78ac0b0db2fa78754bc81c0b03a",
			point:    "0861985e87f64786a379f7ea2b6791ba1e47691dc6f572514a49292b1bc05dac",
		},
		{
			name:     "negative retries",
			req:      Request{App: app, Grid: grid, Retries: -4},
			campaign: "4a38749b3bff99618cf94a7d6fc609ceb9a9d4929e54976515f1cf6fd6200ad7",
			point:    "d1565953d0346c8abb9b33c8d2334c4dd242dacc01942fae09eec7f4feaf5fa4",
		},
		{
			name:     "negative min-points",
			req:      Request{App: app, Grid: grid, MinPoints: -2},
			campaign: "4a38749b3bff99618cf94a7d6fc609ceb9a9d4929e54976515f1cf6fd6200ad7",
			point:    "d1565953d0346c8abb9b33c8d2334c4dd242dacc01942fae09eec7f4feaf5fa4",
		},
		{
			name:     "empty grid",
			req:      Request{App: app},
			campaign: "99ff88f1ad3e9720663201f5cfb1b0b5711576746485236ca41075dd9ed6b914",
			point:    "f0a676b522d29628566bd1aa00d83a62a165551831170b5da47a4b97223bcf1e",
		},
		{
			name:     "nil app, empty axes",
			req:      Request{Grid: workload.Grid{Procs: []int{}, Ns: []int{}}},
			campaign: "22c2b90d0db9965a630b206964c8aff258500d46f4f03750fa599320bf539634",
			point:    "629d6c73dd2255b227152c7607509eae61c3f243ecdec24b40731e5e0d915710",
		},
	}
	for _, tc := range cases {
		if got := ComputeKey(tc.req).String(); got != tc.campaign {
			t.Errorf("%s: ComputeKey = %s, want %s", tc.name, got, tc.campaign)
		}
		if got := ComputePointKey(tc.req, 4, 128).String(); got != tc.point {
			t.Errorf("%s: ComputePointKey = %s, want %s", tc.name, got, tc.point)
		}
	}
}
