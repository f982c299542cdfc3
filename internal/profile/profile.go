// Package profile is the Score-P substitute: a call-path profiler that
// attributes metric values to individual program locations ("regions") and
// their call paths, at the granularity the paper uses to attribute
// communication requirements to MPI call sites.
//
// A Profiler is owned by a single simulated process. After a run, per-rank
// profiles are merged into a single program profile with Merge, and flat
// per-path metric tables are extracted with Flatten.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Metric names one of the fixed-slot metrics: the closed set the simulated
// runtime records on every counter event. Each node keeps them in a small
// array instead of a string-keyed map, so recording one costs an add and a
// bit set. AddMetric accepts these names too, and any other name, which
// goes to a per-node map.
type Metric uint8

// The fixed-slot metrics, named as in Table I.
const (
	Flop Metric = iota
	Loads
	Stores
	BytesSent
	BytesRecv
	numMetrics
)

var metricNames = [numMetrics]string{"flop", "loads", "stores", "bytes_sent", "bytes_recv"}

// String returns the metric's name as AddMetric, Flatten and the JSON form
// spell it.
func (m Metric) String() string { return metricNames[m] }

// lookupMetric resolves a metric name to its fixed slot.
func lookupMetric(name string) (Metric, bool) {
	for m, s := range metricNames {
		if s == name {
			return Metric(m), true
		}
	}
	return 0, false
}

// Node is one call-path node: a region name in the context of its parent
// chain, with metric accumulators.
type Node struct {
	Name     string
	Visits   int64
	Children []*Node

	// slots accumulate the fixed-slot metrics; bit m of has is set once
	// slot m has been added to, so a metric is present (in Metrics,
	// Flatten and the JSON form) exactly when it was ever recorded, even
	// as zero. extra holds every other metric name.
	slots  [numMetrics]float64
	has    uint8
	extra  map[string]float64
	parent *Node
}

// add accumulates v into the fixed slot m.
func (n *Node) add(m Metric, v float64) {
	n.slots[m] += v
	n.has |= 1 << m
}

// addNamed accumulates v into the named metric.
func (n *Node) addNamed(name string, v float64) {
	if m, ok := lookupMetric(name); ok {
		n.add(m, v)
		return
	}
	if n.extra == nil {
		n.extra = map[string]float64{}
	}
	n.extra[name] += v
}

// Metric returns the node's exclusive value of the named metric, or 0 if it
// was never recorded there.
func (n *Node) Metric(name string) float64 {
	if m, ok := lookupMetric(name); ok {
		return n.slots[m]
	}
	return n.extra[name]
}

// Metrics returns a fresh map of every metric recorded at the node, or nil
// if none was.
func (n *Node) Metrics() map[string]float64 {
	if n.has == 0 && len(n.extra) == 0 {
		return nil
	}
	out := make(map[string]float64, int(numMetrics)+len(n.extra))
	for m := Metric(0); m < numMetrics; m++ {
		if n.has&(1<<m) != 0 {
			out[metricNames[m]] = n.slots[m]
		}
	}
	for k, v := range n.extra {
		out[k] = v
	}
	return out
}

// nodeJSON is the serialized form of a Node.
type nodeJSON struct {
	Name     string             `json:"name"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Visits   int64              `json:"visits,omitempty"`
	Children []*Node            `json:"children,omitempty"`
}

// MarshalJSON serializes the node and its subtree.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(nodeJSON{Name: n.Name, Metrics: n.Metrics(), Visits: n.Visits, Children: n.Children})
}

// UnmarshalJSON restores a node serialized by MarshalJSON. Parent links are
// not restored; Profiler.UnmarshalJSON fixes them for the whole tree.
func (n *Node) UnmarshalJSON(data []byte) error {
	var w nodeJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*n = Node{Name: w.Name, Visits: w.Visits, Children: w.Children}
	// Values are assigned, not added, so a stored -0 survives the trip.
	for k, v := range w.Metrics {
		if m, ok := lookupMetric(k); ok {
			n.slots[m] = v
			n.has |= 1 << m
			continue
		}
		if n.extra == nil {
			n.extra = map[string]float64{}
		}
		n.extra[k] = v
	}
	return nil
}

func newNode(name string, parent *Node) *Node {
	return &Node{Name: name, parent: parent}
}

// child returns (creating if needed) the child with the given name. Call
// trees are narrow — a proxy's regions have a handful of children each —
// so a scan beats building an index per node on every run.
func (n *Node) child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := newNode(name, n)
	n.Children = append(n.Children, c)
	return c
}

// Profiler records a call tree for one simulated process.
type Profiler struct {
	root    *Node
	current *Node
}

// New returns an empty profiler whose root region is "main".
func New() *Profiler {
	root := newNode("main", nil)
	root.Visits = 1
	return &Profiler{root: root, current: root}
}

// Enter pushes a region onto the call path.
func (p *Profiler) Enter(region string) {
	p.current = p.current.child(region)
	p.current.Visits++
}

// Exit pops the current region. Exiting the root panics: that is always an
// instrumentation bug in the caller.
func (p *Profiler) Exit(region string) {
	if p.current.parent == nil {
		panic("profile: Exit called on root")
	}
	if p.current.Name != region {
		panic(fmt.Sprintf("profile: Exit(%q) does not match current region %q", region, p.current.Name))
	}
	p.current = p.current.parent
}

// InRegion runs f inside the named region.
func (p *Profiler) InRegion(region string, f func()) {
	p.Enter(region)
	defer p.Exit(region)
	f()
}

// AddMetric accumulates a metric value on the current call path. Names of
// the fixed-slot metrics land in their slots, as if added with Add.
func (p *Profiler) AddMetric(metric string, v float64) { p.current.addNamed(metric, v) }

// Add accumulates a fixed-slot metric value on the current call path: the
// allocation-free form of AddMetric(m.String(), v).
func (p *Profiler) Add(m Metric, v float64) { p.current.add(m, v) }

// Root returns the root node of the call tree.
func (p *Profiler) Root() *Node { return p.root }

// Depth returns the current call-path depth (root = 0).
func (p *Profiler) Depth() int {
	d := 0
	for n := p.current; n.parent != nil; n = n.parent {
		d++
	}
	return d
}

// PathMetrics is a flattened call-path row.
type PathMetrics struct {
	Path    string // "main/solver/allreduce"
	Visits  int64
	Metrics map[string]float64
}

// Flatten returns all call paths with their metrics, sorted by path.
func (p *Profiler) Flatten() []PathMetrics {
	var out []PathMetrics
	var walk func(n *Node, prefix string)
	walk = func(n *Node, prefix string) {
		path := prefix + n.Name
		out = append(out, PathMetrics{Path: path, Visits: n.Visits, Metrics: n.Metrics()})
		for _, c := range n.Children {
			walk(c, path+"/")
		}
	}
	walk(p.root, "")
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// MetricTotal returns the sum of the named metric over the whole call tree.
func (p *Profiler) MetricTotal(metric string) float64 {
	var total float64
	var walk func(n *Node)
	walk = func(n *Node) {
		total += n.Metric(metric)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.root)
	return total
}

// PathMetric returns the value of a metric at an exact call path (using
// "/"-separated region names starting with "main"), or 0 if absent.
func (p *Profiler) PathMetric(path, metric string) float64 {
	parts := strings.Split(path, "/")
	n := p.root
	if len(parts) == 0 || parts[0] != n.Name {
		return 0
	}
	for _, part := range parts[1:] {
		var next *Node
		for _, c := range n.Children {
			if c.Name == part {
				next = c
				break
			}
		}
		if next == nil {
			return 0
		}
		n = next
	}
	return n.Metric(metric)
}

// Merge adds the call tree of o into p (summing metrics and visits of
// matching paths). Used to aggregate the per-rank profiles of a run.
func (p *Profiler) Merge(o *Profiler) {
	var merge func(dst, src *Node)
	merge = func(dst, src *Node) {
		dst.Visits += src.Visits
		for m := Metric(0); m < numMetrics; m++ {
			if src.has&(1<<m) != 0 {
				dst.add(m, src.slots[m])
			}
		}
		for k, v := range src.extra {
			dst.addNamed(k, v)
		}
		for _, sc := range src.Children {
			merge(dst.child(sc.Name), sc)
		}
	}
	// Each per-process root starts with Visits == 1, so after merging the
	// root visit count equals the number of merged processes.
	merge(p.root, o.root)
}

// MarshalJSON serializes the call tree.
func (p *Profiler) MarshalJSON() ([]byte, error) { return json.Marshal(p.root) }

// UnmarshalJSON restores a call tree serialized by MarshalJSON. The restored
// profiler's current region is the root.
func (p *Profiler) UnmarshalJSON(data []byte) error {
	var root Node
	if err := json.Unmarshal(data, &root); err != nil {
		return err
	}
	fixParents(&root, nil)
	p.root = &root
	p.current = &root
	return nil
}

func fixParents(n *Node, parent *Node) {
	n.parent = parent
	for _, c := range n.Children {
		fixParents(c, n)
	}
}
