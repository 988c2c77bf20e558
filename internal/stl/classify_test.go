package stl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goClassifiers switches the vector classifiers off and returns what switches
// them back. A build that never had them on writes nothing, so race builds
// see no write to the dispatch variable.
func goClassifiers() (restore func()) {
	if !useAVX2 {
		return func() {}
	}
	useAVX2 = false
	return func() { useAVX2 = true }
}

// onGoClassifiers runs f again as the subtest "go" on the Go classifiers: they
// are the path of every CPU without AVX2, every other architecture and every
// race build, so a test run on an AVX2 machine must hold them too.
func onGoClassifiers(t *testing.T, f func(t *testing.T)) {
	defer goClassifiers()()
	t.Run("go", f)
}

func classifyWidth(hits *[runElems / 8]uint8, es int, src []byte, lo, span uint64) {
	if es == 4 {
		classify4(hits, src, lo, span)
	} else {
		classify8(hits, src, lo, span)
	}
}

// checkClassify holds the vector classifier of width es to the Go one over n
// elements drawn around the range [lo, min(hi, top)] — its ends, one past
// them, zero and top — and both to the one compare per element they stand
// for. A range empty after the clamp is never classified (match returns
// first), so lo and hi are swapped into order.
func checkClassify(t *testing.T, es int, n int, lo, hi uint64, seed int64) {
	if !useAVX2 {
		t.Skip("no vector classifier on this CPU or in this build")
	}
	top := ^uint64(0) >> (64 - 8*uint(es))
	lo, hi = lo&top, min(hi, top)
	if lo > hi {
		lo, hi = hi, lo
	}
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, n*es)
	for i := 0; i < n; i++ {
		v := []uint64{rng.Uint64(), lo, hi, lo - 1, hi + 1, 0, top, lo + uint64(rng.Intn(3))}[rng.Intn(8)] & top
		for b := 0; b < es; b++ {
			src[i*es+b] = byte(v >> (8 * b))
		}
	}
	var vec, scalar [runElems / 8]uint8
	classifyWidth(&vec, es, src, lo, hi-lo)
	restore := goClassifiers()
	classifyWidth(&scalar, es, src, lo, hi-lo)
	restore()
	if vec != scalar {
		t.Fatalf("w%d n=%d [%#x, %#x]: vector bitmap differs from Go's\nvector %x\n    go %x", es, n, lo, hi, vec, scalar)
	}
	for i := 0; i < n&^7; i++ {
		v := elem(src, es, i)
		if got, want := vec[i/8]>>(i%8)&1 == 1, lo <= v && v <= hi; got != want {
			t.Fatalf("w%d n=%d [%#x, %#x]: element %d = %#x classified %v, want %v", es, n, lo, hi, i, v, got, want)
		}
	}
}

// FuzzClassify compares the vector and Go bitmaps for widths 4 and 8. The
// seed table covers run lengths of 0 to 512 elements (empty, a tail alone,
// one block, one block and a tail, a whole run) against the edge ranges.
func FuzzClassify(f *testing.F) {
	for _, wide := range []bool{false, true} {
		top := ^uint64(0) >> (64 - 8*uint(fuzzWidth(wide)))
		for _, n := range []uint16{0, 1, 7, 8, 9, 63, 64, 65, 511, 512} {
			for _, r := range [][2]uint64{
				{0, top / 3},       // lo = 0
				{top / 3, top},     // hi = top
				{top / 5, top / 5}, // lo = hi: span 0
				{top, top},         // lo = hi = top
				{0, 0},             // span 0 at zero
				{0, top},           // everything
			} {
				f.Add(wide, n, r[0], r[1], int64(n)+int64(r[0]%97))
			}
		}
	}
	f.Fuzz(func(t *testing.T, wide bool, n uint16, lo, hi uint64, seed int64) {
		checkClassify(t, fuzzWidth(wide), int(n)%(runElems+1), lo, hi, seed)
	})
}

func fuzzWidth(wide bool) int {
	if wide {
		return 8
	}
	return 4
}

// TestVectorClassifiersOffUnderRace: the race detector does not see an
// assembly load or store, so a frame reused under a vector classifier or the
// store kernel would go unreported; race builds must classify and fill pages
// in Go.
func TestVectorClassifiersOffUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("not a race build")
	}
	if useAVX2 {
		t.Fatal("the vector classifiers are on in a race build")
	}
}

// TestClassifierAsmIsVEX: in every assembly file of the package — the
// classifiers and the store kernel — every instruction that names an X or Y
// register is VEX-encoded, and every function that names a Y register
// executes VZEROUPPER before each RET. A legacy-SSE instruction among AVX ones
// pays an SSE/AVX transition on every call.
func TestClassifierAsmIsVEX(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
	}
	vecReg := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	ymm := regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fn, wide, cleared := "", false, false
		for n, line := range strings.Split(string(src), "\n") {
			line, _, _ = strings.Cut(line, "//")
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasSuffix(fields[0], ":") || strings.HasPrefix(fields[0], "#") {
				continue
			}
			op := fields[0]
			switch {
			case op == "TEXT":
				fn, wide, cleared = strings.TrimSuffix(fields[1], ","), false, false
				continue
			case vecReg.MatchString(line) && !strings.HasPrefix(op, "V"):
				t.Errorf("%s:%d: %s names a vector register without a VEX encoding: %s", file, n+1, op, strings.TrimSpace(line))
			case op == "RET" && wide && !cleared:
				t.Errorf("%s:%d: %s returns without VZEROUPPER", file, n+1, fn)
			}
			if ymm.MatchString(line) {
				wide, cleared = true, false
			}
			if op == "VZEROUPPER" {
				cleared = true
			}
		}
	}
}

// BenchmarkClassify: one classifier call per op at 0, 1, 8 and 64 blocks
// (64 is a whole run), for widths 4 and 8 on both paths. A fixed cost per
// call shows as the 0-block figure and as a line that does not pass through
// it.
func BenchmarkClassify(b *testing.B) {
	for _, es := range []int{4, 8} {
		for _, path := range []string{"vector", "go"} {
			for _, blocks := range []int{0, 1, 8, 64} {
				b.Run(fmt.Sprintf("w%d/%s/blocks=%d", es, path, blocks), func(b *testing.B) {
					if path == "vector" && !useAVX2 {
						b.Skip("no vector classifier on this CPU or in this build")
					}
					if path == "go" {
						defer goClassifiers()()
					}
					src := make([]byte, 8*blocks*es)
					rand.New(rand.NewSource(1)).Read(src)
					top := ^uint64(0) >> (64 - 8*uint(es))
					lo, span := top/4, top/100
					var hits [runElems / 8]uint8
					b.SetBytes(int64(len(src)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						classifyWidth(&hits, es, src, lo, span)
					}
				})
			}
		}
	}
}
