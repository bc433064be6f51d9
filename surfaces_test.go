package repro_test

// Surface goldens: the six examples and the flexcl, flexcl-dse and
// flexcl-bench commands are built once and run with fixed arguments, and
// each one's stdout must match testdata/surfaces/<case>.golden byte for
// byte once timing and worker-count figures are masked. After an
// intentional output change, regenerate them with
//
//	go test -run TestSurfaces -update .

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// surfaceCases lists every golden run: the binary and its arguments.
var surfaceCases = []struct {
	name string
	bin  string
	args []string
}{
	{"crossplatform", "crossplatform", nil},
	{"host-api", "host-api", nil},
	{"hotspot-dse", "hotspot-dse", nil},
	{"memory-patterns", "memory-patterns", nil},
	{"quickstart", "quickstart", nil},
	{"stencil-optimizer", "stencil-optimizer", nil},
	{"flexcl-sim", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-sim"}},
	{"flexcl-kernel", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-kernel", "blur3",
		"-wg", "128", "-pe", "4", "-cu", "2", "-mode", "barrier", "-arg", "n=4096", "-sim"}},
	{"flexcl-dse-exhaustive", "flexcl-dse", []string{"-bench", "hotspot", "-kernel", "hotspot", "-search", "exhaustive"}},
	{"flexcl-dse-guided", "flexcl-dse", []string{"-bench", "hotspot", "-kernel", "hotspot", "-search", "guided"}},
	{"flexcl-dse-pareto", "flexcl-dse", []string{"-bench", "hotspot", "-kernel", "hotspot", "-search", "pareto"}},
	{"flexcl-bench-table1", "flexcl-bench", []string{"-exp", "table1"}},
}

// durationRE matches a time.Duration as String prints it ("0s", "15ms",
// "1.234s", "1m2.5s"); workersRE matches hotspot-dse's worker count.
var (
	durationRE = regexp.MustCompile(`\b(\d+m)?\d+(\.\d+)?(ns|µs|ms|s)\b`)
	workersRE  = regexp.MustCompile(`\(\d+ workers`)
)

// maskVolatile replaces the figures that vary from run to run.
func maskVolatile(out string) string {
	out = durationRE.ReplaceAllString(out, "<dur>")
	return workersRE.ReplaceAllString(out, "(<n> workers")
}

// buildSurfaces compiles every command and example the cases run into
// one temporary directory.
func buildSurfaces(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/flexcl", "./cmd/flexcl-dse", "./cmd/flexcl-bench", "./examples/...")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// runSurface runs one built binary and returns its stdout, stderr and
// exit code.
func runSurface(t *testing.T, dir, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("%s: %v", bin, err)
	}
	return o.String(), e.String(), code
}

func TestSurfaces(t *testing.T) {
	dir := buildSurfaces(t)

	for _, c := range surfaceCases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := runSurface(t, dir, c.bin, c.args...)
			if code != 0 {
				t.Fatalf("%s %v: exit %d\n%s", c.bin, c.args, code, stderr)
			}
			got := maskVolatile(stdout)
			path := filepath.Join("testdata", "surfaces", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing: %v\nrun `go test -run TestSurfaces -update .` to create it", err)
			}
			if got != string(want) {
				t.Errorf("%s %v: stdout differs from %s\n--- got\n%s--- want\n%s", c.bin, c.args, path, got, want)
			}
		})
	}

	// The failures the surfaces must report, not panic on or swallow.
	errCases := []struct {
		name   string
		bin    string
		args   []string
		code   int
		stderr string
	}{
		{"flexcl-no-kernel", "flexcl", []string{"-file", "testdata/surfaces/nokernel.cl"}, 1, "no __kernel functions in testdata/surfaces/nokernel.cl"},
		{"flexcl-unknown-kernel", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-kernel", "nosuch"}, 1, "kernel nosuch not found"},
		{"flexcl-bench-unknown-exp", "flexcl-bench", []string{"-exp", "nosuch"}, 2, "table1"},
		{"flexcl-cu-zero", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-cu", "0", "-sim"}, 1, "flexcl: cu 0 out of range [1, 4]"},
		{"flexcl-pe-zero", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-pe", "0"}, 1, "flexcl: pe 0 out of range [1, 16]"},
		{"flexcl-wg-zero", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-wg", "0"}, 1, "flexcl: wg 0 must be at least 1"},
		{"flexcl-pe-without-pipeline", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-pe", "4", "-pipeline=false"}, 1, "flexcl: pe 4 requires wi_pipeline"},
		{"flexcl-bad-mode", "flexcl", []string{"-file", "testdata/surfaces/kernels.cl", "-mode", "bogus"}, 1, `flexcl: mode "bogus" must be "barrier" or "pipeline"`},
	}
	for _, c := range errCases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := runSurface(t, dir, c.bin, c.args...)
			if code != c.code || !strings.Contains(stderr, c.stderr) {
				t.Errorf("%s %v: exit %d, stderr %q; want exit %d with %q", c.bin, c.args, code, stderr, c.code, c.stderr)
			}
			if stdout != "" {
				t.Errorf("%s %v: printed %q on stdout", c.bin, c.args, stdout)
			}
		})
	}
}
