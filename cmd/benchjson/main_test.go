package main

import (
	"bytes"
	"strings"
	"testing"
)

// transcript is a trimmed `go test -bench` run on a 2-core host: two
// packages, a sub-benchmark, a custom metric, a failed benchmark line
// that must be skipped, and a serveload summary.
const transcript = `goos: linux
goarch: amd64
pkg: diststream
cpu: Test CPU @ 2.10GHz
BenchmarkAssignOp-2   	     565	   2083164 ns/op	  281571 rec/s	  370136 B/op	    8208 allocs/op
BenchmarkTCPCheckpointed-2   	       1	1281000000 ns/op	         1.281 ms/batch
PASS
ok  	diststream	12.345s
goos: linux
goarch: amd64
pkg: diststream/internal/serve
cpu: Test CPU @ 2.10GHz
BenchmarkServeQueryLoad/clients=4-2   	      10	    104857 ns/op
BenchmarkBroken-2   	--- FAIL: BenchmarkBroken-2
SERVELOAD {"qps":1234.5,"p50_ms":0.4,"p99_ms":2.1,"shed":0}
PASS
ok  	diststream/internal/serve	3.210s
`

const wantJSON = `{
  "environment": {
    "cpu": "Test CPU @ 2.10GHz",
    "go_version": "go1.test",
    "goarch": "amd64",
    "gomaxprocs": "2",
    "goos": "linux",
    "num_cpu": "4"
  },
  "benchmarks": {
    "BenchmarkAssignOp": {
      "package": "diststream",
      "iterations": 565,
      "metrics": {
        "B/op": 370136,
        "allocs/op": 8208,
        "ns/op": 2083164,
        "rec/s": 281571
      }
    },
    "BenchmarkServeQueryLoad/clients=4": {
      "package": "diststream/internal/serve",
      "iterations": 10,
      "metrics": {
        "ns/op": 104857
      }
    },
    "BenchmarkTCPCheckpointed": {
      "package": "diststream",
      "iterations": 1,
      "metrics": {
        "ms/batch": 1.281,
        "ns/op": 1281000000
      }
    }
  },
  "serveload": [
    {
      "qps": 1234.5,
      "p50_ms": 0.4,
      "p99_ms": 2.1,
      "shed": 0
    }
  ]
}
`

func TestRunTranscript(t *testing.T) {
	var out bytes.Buffer
	env := map[string]string{"num_cpu": "4", "go_version": "go1.test"}
	if err := run(strings.NewReader(transcript), &out, env); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != wantJSON {
		t.Errorf("report mismatch:\n got: %s\nwant: %s", got, wantJSON)
	}
}

// TestGOMAXPROCSFromSuffix checks the gomaxprocs record: go test omits
// the suffix at GOMAXPROCS=1, and -cpu runs list each value once.
func TestGOMAXPROCSFromSuffix(t *testing.T) {
	cases := []struct{ in, want string }{
		{"BenchmarkA   10   5 ns/op\n", `"gomaxprocs": "1"`},
		{"BenchmarkA-8   10   5 ns/op\nBenchmarkB-8   10   5 ns/op\n", `"gomaxprocs": "8"`},
		{"BenchmarkA   10   5 ns/op\nBenchmarkA-4   10   5 ns/op\n", `"gomaxprocs": "1,4"`},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := run(strings.NewReader(c.in), &out, nil); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("input %q: report lacks %s:\n%s", c.in, c.want, out.String())
		}
	}
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\n"), &out, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "gomaxprocs") {
		t.Errorf("transcript without benchmarks recorded gomaxprocs:\n%s", out.String())
	}
}
