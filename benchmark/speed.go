package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was calibrated on is shared: its speed drifts by
// tens of percent from one second to the next and from one minute to the
// next, and a whole run can land in a slow stretch. Every timing is
// therefore scaled to a reference host speed measured while the timing is
// taken. A speed probe runs a fixed kernel, built from the standard library
// alone so that no change to the program can move it, every probeEvery on
// its own OS thread, and records the thread CPU time each call took. A
// phase's speed factor f is the median probe time during the phase over
// refProbe; its timings are divided by f and its rates multiplied by it.
// On the calibration runs the server's CPU time per document in a
// closed-loop window rose with f to a power of 0.7 to 1, window by window
// (correlation 0.8 to 0.9); see README "Host speed" for what does not
// scale this way.
//
// The probe's thread CPU time does not see the hypervisor taking the
// host's CPUs away, so the share of the host's CPU time stolen during the
// phase is read from /proc/stat as well, and wall-clock timings keep only
// the unstolen share of their time (refScale). CPU times need no such
// correction: stolen time is never charged to a process.

// refProbe is the probe time that defines the reference speed: about the
// median on the calibration host, so scaled timings read close to raw ones.
const refProbe = 90 * time.Microsecond

// probeEvery is the probe period: about 1% of one core, and two hundred
// samples per two-second phase.
const probeEvery = 10 * time.Millisecond

// kernel is the probe's fixed work: a tokenizer-like scan of an HTML page
// with a tag-name map lookup per tag, then a sort. It allocates nothing.
type kernel struct {
	page      []byte
	tags      map[string]int
	seed, xs  []int
	sink, idx int
}

func newKernel() *kernel {
	k := &kernel{tags: map[string]int{}, seed: make([]int, 1024), xs: make([]int, 1024)}
	names := []string{"table", "tr", "td", "a", "div", "span", "p", "h1", "form", "input"}
	for i, n := range names {
		k.tags[n] = i
		k.tags["/"+n] = i
	}
	var b strings.Builder
	for i := 0; b.Len() < 12<<10; i++ {
		n := names[i%len(names)]
		fmt.Fprintf(&b, `<%s class="c%d">cell %d text</%s>`, n, i%7, i, n)
	}
	k.page = []byte(b.String())
	s := uint32(1)
	for i := range k.seed {
		s = s*1664525 + 1013904223
		k.seed[i] = int(s >> 8)
	}
	return k
}

func (k *kernel) run() {
	n, b := 0, k.page
	for i := 0; i < len(b); {
		j := bytes.IndexByte(b[i:], '<')
		if j < 0 {
			break
		}
		i += j + 1
		e := i
		for e < len(b) && b[e] != '>' && b[e] != ' ' {
			e++
		}
		n += k.tags[string(b[i:e])]
		i = e
	}
	copy(k.xs, k.seed)
	sort.Ints(k.xs)
	k.sink += n + k.xs[k.idx%len(k.xs)]
	k.idx++
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return time.Duration(ts.Nano())
}

// speedProbe samples the host's speed until stopped.
type speedProbe struct {
	mu      sync.Mutex
	samples []float64 // probe CPU times since the last interval, µs
	stop    chan struct{}
	stopped chan struct{}

	steal, total int64 // /proc/stat counters at the start of the interval
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), stopped: make(chan struct{})}
	p.steal, p.total = cpuStat()
	k := newKernel()
	go func() {
		defer close(p.stopped)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tk := time.NewTicker(probeEvery)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tk.C:
			}
			c0 := threadCPU()
			k.run()
			d := threadCPU() - c0
			p.mu.Lock()
			p.samples = append(p.samples, float64(d)/float64(time.Microsecond))
			p.mu.Unlock()
		}
	}()
	return p
}

// interval ends the current interval, which began at the last call (or at
// the start), and starts the next. It returns the interval's speed factor —
// the median probe time over refProbe, 1 when there was no sample — and
// the share of the host's CPU time the hypervisor stole during it.
func (p *speedProbe) interval() (factor, steal float64) {
	p.mu.Lock()
	s := p.samples
	p.samples = nil
	p.mu.Unlock()
	st, tot := cpuStat()
	steal = frac(float64(st-p.steal), float64(tot-p.total))
	p.steal, p.total = st, tot
	if len(s) == 0 {
		return 1, steal
	}
	return median(s) / (float64(refProbe) / float64(time.Microsecond)), steal
}

// refScale converts a wall-clock time measured during an interval with speed
// factor f and stolen share steal to the reference speed: multiply by it.
func refScale(f, steal float64) float64 {
	return (1 - steal) / f
}

// cpuStat returns the host's stolen and total CPU time in clock ticks, from
// the first line of /proc/stat; zeros when it cannot be read.
func cpuStat() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (p *speedProbe) close() {
	close(p.stop)
	<-p.stopped
}
