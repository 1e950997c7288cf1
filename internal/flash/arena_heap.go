//go:build !unix || race

package flash

// newArena returns an n-byte content arena on the Go heap (arena_unix.go
// says why race builds use it).
func newArena(_ *Array, n int) ([]byte, error) { return make([]byte, n), nil }
