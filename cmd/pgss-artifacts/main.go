// Command pgss-artifacts manages a content-addressed artifact store: the
// on-disk cache of recorded profiles and checkpoint libraries that
// campaigns share across runs and processes (see internal/artifact).
//
// Usage:
//
//	pgss-artifacts ls                  # list artifacts
//	pgss-artifacts verify              # audit + repair
//	pgss-artifacts gc -max 256MB       # LRU-evict to a budget
//	pgss-artifacts pin <hash>          # protect from GC
//	pgss-artifacts unpin <hash>
//	pgss-artifacts -root DIR ls        # a store other than the default
//
// The default root is the one pgss-bench uses: pgss-artifacts under the
// user cache directory.
//
// The exit code is 0 on success; verify exits 1 when it had to repair
// anything (so CI can flag a store that keeps rotting).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pgss/internal/artifact"
)

func main() {
	root := flag.String("root", artifact.DefaultRoot(), "artifact store root directory")
	verbose := flag.Bool("v", false, "print store diagnostics")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format, a...) }
	}
	st, err := artifact.Open(*root, artifact.Options{Logf: logf})
	if err != nil {
		fatal(err)
	}

	switch cmd, rest := args[0], args[1:]; cmd {
	case "ls":
		ls(st)
	case "verify":
		verify(st)
	case "gc":
		gc(st, rest)
	case "pin", "unpin":
		pin(st, cmd, rest)
	default:
		fmt.Fprintf(os.Stderr, "pgss-artifacts: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func ls(st *artifact.Store) {
	entries := st.List()
	for _, e := range entries {
		key := e.Key.String()
		if e.Recovered {
			key = string(e.Key.Kind) + " (recovered)"
		}
		pin := ""
		if e.Refs > 0 {
			pin = fmt.Sprintf("  pinned×%d", e.Refs)
		}
		fmt.Printf("%s  %10s  gen %4d  %s%s\n",
			e.Hash[:12], sizeStr(e.Size), e.LastUseGen, key, pin)
	}
	fmt.Printf("%d artifacts, %s\n", len(entries), sizeStr(st.TotalBytes()))
}

func verify(st *artifact.Store) {
	rep, err := st.Verify()
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	for _, h := range rep.Corrupt {
		fmt.Printf("  corrupt (deleted): %s\n", h[:12])
	}
	for _, h := range rep.Missing {
		fmt.Printf("  missing object (entry dropped): %s\n", h[:12])
	}
	for _, h := range rep.Adopted {
		fmt.Printf("  adopted unindexed object: %s\n", h[:12])
	}
	if len(rep.Corrupt)+len(rep.Missing) > 0 || rep.TmpSwept > 0 {
		os.Exit(1)
	}
}

func gc(st *artifact.Store, args []string) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	max := fs.String("max", "1GB", "store size budget (e.g. 512MB, 2GB, or bytes)")
	fs.Parse(args)
	budget, err := parseSize(*max)
	if err != nil {
		fatal(err)
	}
	stats, err := st.GC(budget)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scanned %d, evicted %d (%s freed), %d pinned, %s kept\n",
		stats.Scanned, stats.Evicted, sizeStr(stats.BytesFreed), stats.Pinned, sizeStr(stats.BytesKept))
}

func pin(st *artifact.Store, cmd string, args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("%s needs exactly one artifact hash (or unique prefix)", cmd))
	}
	hash, err := resolveHash(st, args[0])
	if err != nil {
		fatal(err)
	}
	if cmd == "pin" {
		err = st.Pin(hash)
	} else {
		err = st.Unpin(hash)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%sned %s\n", cmd, hash[:12])
}

// resolveHash expands a unique hash prefix to the full address.
func resolveHash(st *artifact.Store, prefix string) (string, error) {
	var match string
	for _, e := range st.List() {
		if strings.HasPrefix(e.Hash, prefix) {
			if match != "" {
				return "", fmt.Errorf("prefix %q is ambiguous", prefix)
			}
			match = e.Hash
		}
	}
	if match == "" {
		return "", fmt.Errorf("no artifact matches %q", prefix)
	}
	return match, nil
}

func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func sizeStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pgss-artifacts [-root DIR] [-v] COMMAND

Commands:
  ls            list artifacts (hash, size, last-use generation, key)
  verify        audit every object, repair the index, sweep leftovers
  gc [-max N]   evict least-recently-used unpinned artifacts to a budget
  pin HASH      protect an artifact from gc (prefix ok)
  unpin HASH    release a pin
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgss-artifacts:", err)
	os.Exit(1)
}
