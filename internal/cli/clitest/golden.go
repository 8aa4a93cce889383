// Package clitest pins command output across commits: it runs a command's
// in-process entry point over the example suites and compares the sha256 of
// its stdout with a committed digest file.
package clitest

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dmlscale/internal/cli"
)

// examplesDir is where the suite files named in a digest file live, relative
// to a command's package directory (cmd/<name>).
const examplesDir = "../../examples/suites"

// Golden checks every case of the digest file at path. Each line is
// "<sha256 hex>  <suite file> <flags...>", the suite file relative to
// examples/suites; blank lines and '#' lines are skipped. The file must
// cover every example suite with "-format json" and "-format csv", plus the
// extra cases given as "<suite file> <flags...>".
//
// Outputs are compared only on amd64: the Go spec lets other architectures
// fuse multiply-adds, which may change the last bits of a float.
func Golden(t *testing.T, run cli.Entry, path string, extra ...string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	digests := readDigests(t, path)
	suites, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil || len(suites) == 0 {
		t.Fatalf("no example suites under %s (%v)", examplesDir, err)
	}
	want := extra
	for _, s := range suites {
		for _, format := range []string{"json", "csv"} {
			want = append(want, filepath.Base(s)+" -format "+format)
		}
	}
	for _, key := range want {
		if _, ok := digests[key]; !ok {
			t.Errorf("%s has no digest for %q", path, key)
		}
	}
	for key, digest := range digests {
		t.Run(key, func(t *testing.T) {
			fields := strings.Fields(key)
			args := append([]string{"-suite", filepath.Join(examplesDir, fields[0])}, fields[1:]...)
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != digest {
				t.Errorf("stdout sha256 = %s, want %s (%d bytes)", got, digest, stdout.Len())
			}
		})
	}
}

// readDigests parses a digest file into case key → hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		digest, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[strings.TrimSpace(key)] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
