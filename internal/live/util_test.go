package live

import (
	"os"
	"testing"
	"time"
)

func readFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func writeFile(path string, b []byte) error  { return os.WriteFile(path, b, 0o644) }
func openFile(path string) (*os.File, error) { return os.Open(path) }

// openServer is OpenServer the way every test in this package opens one:
// with the CI matrix's OODB_* selection (recluster, transport)
// filling whatever the test left unset.
func openServer(dir string, opts ServerOptions) (*Server, error) {
	applyEnv(&opts)
	return OpenServer(dir, opts)
}

// applyEnv fills the fields of o that are still unset from the two
// variables the CI matrix selects its configurations with. Nothing but
// this package's tests reads them: the library and the commands take
// options and flags only.
func applyEnv(o *ServerOptions) {
	if v := os.Getenv("OODB_RECLUSTER"); v == "1" || v == "true" {
		o.Recluster = true
	}
	if o.Transport == "" {
		o.Transport = os.Getenv("OODB_TRANSPORT")
	}
}

func sleepMs(ms int) { time.Sleep(time.Duration(ms) * time.Millisecond) }

// timeoutChan returns a channel that fires after a generous deadline.
func timeoutChan(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}
