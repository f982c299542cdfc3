//go:build touchpin

package apps

// countTouches makes touch report every call to touchHook.
const countTouches = true
