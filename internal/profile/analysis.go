package profile

import "sort"

// Analysis helpers over recorded call trees: inclusive metrics (subtree
// sums, what Score-P calls the inclusive value), hot-path extraction, and
// top-k queries. These support attributing a requirement to the program
// location responsible for it, the "bottlenecks can be precisely attributed
// to individual program locations" use of §II-B.

// InclusiveMetric returns the subtree sum of the metric at the given call
// path ("/"-separated starting at "main"), and whether the path exists.
func (p *Profiler) InclusiveMetric(path, metric string) (float64, bool) {
	n := p.findPath(path)
	if n == nil {
		return 0, false
	}
	return inclusive(n, metric), true
}

func inclusive(n *Node, metric string) float64 {
	total := n.Metric(metric)
	for _, c := range n.Children {
		total += inclusive(c, metric)
	}
	return total
}

// HotPath descends from the root, at each level following the child with
// the largest inclusive value of the metric, and returns the resulting call
// path. It stops when no child contributes more than half of the current
// node's inclusive value (the usual hot-path cutoff).
func (p *Profiler) HotPath(metric string) string {
	path := p.root.Name
	n := p.root
	for {
		total := inclusive(n, metric)
		var best *Node
		bestVal := 0.0
		for _, c := range n.Children {
			if v := inclusive(c, metric); v > bestVal {
				best, bestVal = c, v
			}
		}
		if best == nil || bestVal < total/2 {
			return path
		}
		path += "/" + best.Name
		n = best
	}
}

// PathRank is one entry of a TopPaths result.
type PathRank struct {
	Path      string
	Exclusive float64
	Inclusive float64
}

// TopPaths returns the k call paths with the largest exclusive values of
// the metric, descending (fewer if the tree is smaller).
func (p *Profiler) TopPaths(metric string, k int) []PathRank {
	var all []PathRank
	var walk func(n *Node, prefix string)
	walk = func(n *Node, prefix string) {
		path := prefix + n.Name
		all = append(all, PathRank{
			Path:      path,
			Exclusive: n.Metric(metric),
			Inclusive: inclusive(n, metric),
		})
		for _, c := range n.Children {
			walk(c, path+"/")
		}
	}
	walk(p.root, "")
	sort.SliceStable(all, func(i, j int) bool { return all[i].Exclusive > all[j].Exclusive })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// findPath resolves a "/"-separated path from the root.
func (p *Profiler) findPath(path string) *Node {
	n := p.root
	rest := path
	// First component must be the root name.
	next, remainder := splitPath(rest)
	if next != n.Name {
		return nil
	}
	rest = remainder
	for rest != "" {
		next, remainder = splitPath(rest)
		var child *Node
		for _, c := range n.Children {
			if c.Name == next {
				child = c
				break
			}
		}
		if child == nil {
			return nil
		}
		n = child
		rest = remainder
	}
	return n
}

func splitPath(s string) (head, rest string) {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}
