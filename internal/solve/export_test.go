package solve

import "strings"

// Unregister removes a policy from the process-wide registry, so a test
// that registers a throwaway policy can leave the registry as it found
// it.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(registry, strings.ToUpper(name))
}
