//go:build !touchpin

package apps

// countTouches is false outside -tags touchpin builds: touch reports
// nothing and compiles to its bare loop.
const countTouches = false
