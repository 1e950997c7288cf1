// Command almanacd serves a striped array of simulated TimeSSDs — one
// shard by default — over TCP using the Project Almanac command protocol
// (the NVMe-wrapped TimeKits interface of §4). Any number of clients can
// connect; they share the device(s), like processes sharing a block
// device.
//
//	almanacd -listen 127.0.0.1:9521 -channels 8 -blocks 64 -pagesize 4096
//	almanacd -shards 4                       # 4-way striped array
//	almanacd -metrics-addr 127.0.0.1:9522    # expvar/pprof sidecar listener
//	almanacd -fault-plan plan.txt            # deterministic NAND fault injection
//	almanacd -volumes "db:4096:s3cret:6h,scratch:1024"   # pre-provisioned volumes
//
// There is one serving mode. The devices are assembled into an array
// (internal/array; a single device is a 1-shard array and answers exactly
// as the bare device would), the multi-tenant volume service
// (internal/service) sits on the array, and one protocol server fronts
// the service. Clients speak protocol v4 (pre-v4 peers are refused at the
// handshake): the plain block surface and array-wide TimeKits, and named
// volumes carved from the array's address space that they create,
// attach, pipeline batched reads/writes/trims against, and independently
// roll back.
//
// -volumes only pre-provisions: each comma-separated
// name:pages[:key[:retention]] spec creates one named volume at start-up,
// gated by its tenant key and per-volume retention window. Without it the
// service starts empty and clients create volumes over the wire.
//
// Observability is on by default (-obs=false disables it): the devices
// record per-operation latency histograms in both virtual device time
// and host wall time, plus a ring of recent trace events, and every
// volume records its own. Clients fetch them with the OpMetrics, OpTrace
// and OpVolStats commands; the optional -metrics-addr listener
// additionally exposes the same snapshot as expvar JSON together with the
// standard pprof handlers.
//
// With -shards N > 1 the logical address space is striped page-wise
// across N identical TimeSSDs, each with its own worker, so commands to
// different shards execute in parallel (see internal/array). The flag
// geometry describes ONE shard; the exported capacity is N shards' worth.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// completes every in-flight frame — including pipelined v4 requests
// already admitted to a connection's window — and only then saves the
// image(s): one file per shard (`img.shard0` … `img.shardN-1`; with one
// shard, the plain path).
//
// Clients use internal/almaproto.Dial; see examples/remote-timekits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"almanac/internal/almaproto"
	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9521", "TCP address to listen on")
	shards := flag.Int("shards", 1, "TimeSSD shards in the array (flag geometry is per shard)")
	channels := flag.Int("channels", 4, "flash channels per shard")
	chips := flag.Int("chips", 2, "chips per channel")
	blocks := flag.Int("blocks", 64, "blocks per plane")
	pages := flag.Int("pages", 32, "pages per block")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes")
	minRetention := flag.Duration("minretention", 0, "guaranteed retention lower bound (virtual)")
	image := flag.String("image", "", "device image path: loaded on start (via firmware rebuild) and saved after graceful drain; arrays use one file per shard (path.shardK)")
	obsOn := flag.Bool("obs", true, "record per-operation latency histograms and trace events (internal/obs)")
	faultPlan := flag.String("fault-plan", "", "fault plan file (internal/fault syntax); shard k runs the plan reseeded with seed+k")
	metricsAddr := flag.String("metrics-addr", "", "optional HTTP address for the expvar/pprof metrics listener (e.g. 127.0.0.1:9522)")
	volumes := flag.String("volumes", "", "pre-provision comma-separated name:pages[:key[:retention]] volumes")
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("almanacd: -shards must be at least 1, got %d", *shards)
	}

	fc := flash.DefaultConfig()
	fc.Channels = *channels
	fc.ChipsPerChannel = *chips
	fc.BlocksPerPlane = *blocks
	fc.PagesPerBlock = *pages
	fc.PageSize = *pageSize

	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = vclock.Duration(*minRetention)

	if err := checkImageSet(*image, *shards); err != nil {
		log.Fatal(err)
	}
	plan, err := loadFaultPlan(*faultPlan)
	if err != nil {
		log.Fatal(err)
	}
	devs := make([]*core.TimeSSD, *shards)
	for i := range devs {
		dev, err := openDevice(cfg, shardImagePath(*image, *shards, i))
		if err != nil {
			log.Fatal(err)
		}
		if plan != nil {
			// Per-shard reseeding keeps a multi-shard run deterministic
			// without every shard failing in lockstep.
			inj, err := fault.NewInjector(plan.Reseeded(plan.Seed + int64(i)))
			if err != nil {
				log.Fatal(err)
			}
			dev.SetFaults(inj)
		}
		devs[i] = dev
	}
	specs, err := parseVolumeSpecs(*volumes)
	if err != nil {
		log.Fatal(err)
	}

	// One serving path: the devices become an array (one shard included),
	// the service carves volumes out of the array's address space, and the
	// server fronts the service. -volumes only pre-provisions.
	arr, err := array.Assemble(devs)
	if err != nil {
		log.Fatal(err)
	}
	arr.SetObsEnabled(*obsOn)
	svc := service.New(arr)
	svc.SetObsEnabled(*obsOn)
	for _, sp := range specs {
		// Volumes are born at virtual time zero so any client
		// timestamp falls inside their lifetime.
		if _, err := svc.Create(sp.name, sp.key, sp.pages, sp.retention, 0); err != nil {
			log.Fatalf("almanacd: -volumes %s: %v", sp.name, err)
		}
		fmt.Printf("almanacd: volume %q ready (%d pages, retention %v)\n", sp.name, sp.pages, sp.retention)
	}
	srv := almaproto.NewServiceServer(svc)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	if *metricsAddr != "" {
		mln, err := startMetrics(*metricsAddr, srv.Metrics, srv.WireSnapshot)
		if err != nil {
			log.Fatal(err)
		}
		defer mln.Close()
		fmt.Printf("almanacd: metrics on http://%s/debug/vars (pprof under /debug/pprof/)\n", mln.Addr())
	}
	perShard := devs[0].Config().FTL.Flash
	fmt.Printf("almanacd: serving a %d MiB TimeSSD array (%d shard(s) × %d channels, %d logical pages) on %s\n",
		int64(*shards)*perShard.TotalBytes()>>20, *shards, perShard.Channels,
		arr.LogicalPages(), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("almanacd: draining (in-flight frames complete, then images are saved)")
		// Shutdown returns only when every connection has finished its
		// current frame, so the image save below cannot race a dispatch.
		if err := srv.Shutdown(); err != nil {
			log.Print(err)
		}
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Print(err)
	}
	_ = arr.Close() // park the workers before touching the devices directly; Close on a live array cannot fail
	if *image != "" {
		for i, dev := range devs {
			path := shardImagePath(*image, *shards, i)
			if err := saveDevice(dev, path); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("almanacd: device image saved to %s\n", path)
		}
	}
}

// checkImageSet refuses shard counts that disagree with an existing image
// set: striping is lpa mod N, so loading a set saved under a different N
// would silently scramble the address space. Flash images carry no stripe
// metadata (they describe one device's medium), so the file layout is the
// only record of N.
func checkImageSet(image string, shards int) error {
	if image == "" {
		return nil
	}
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	if shards == 1 {
		if exists(image + ".shard0") {
			return fmt.Errorf("almanacd: %s.shard0 exists: this image set was saved by a sharded array; run with the matching -shards", image)
		}
		return nil
	}
	if exists(image) {
		return fmt.Errorf("almanacd: %s exists: this image was saved by a single device; run with -shards 1", image)
	}
	if exists(fmt.Sprintf("%s.shard%d", image, shards)) {
		return fmt.Errorf("almanacd: %s.shard%d exists: this image set was saved with more than %d shards", image, shards, shards)
	}
	// All-or-nothing: a partial set would mix rebuilt and fresh stripes.
	loaded := 0
	for i := 0; i < shards; i++ {
		if exists(shardImagePath(image, shards, i)) {
			loaded++
		}
	}
	if loaded != 0 && loaded != shards {
		return fmt.Errorf("almanacd: image set is incomplete (%d of %d shard files exist)", loaded, shards)
	}
	return nil
}

// shardImagePath names shard i's image file. Single-device deployments
// keep the plain path for compatibility with pre-array images.
func shardImagePath(image string, shards, i int) string {
	if image == "" {
		return ""
	}
	if shards == 1 {
		return image
	}
	return fmt.Sprintf("%s.shard%d", image, i)
}

// loadFaultPlan reads and parses a -fault-plan file; "" means no plan.
func loadFaultPlan(path string) (*fault.Plan, error) {
	if path == "" {
		return nil, nil
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("almanacd: -fault-plan: %w", err)
	}
	plan, err := fault.Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("almanacd: -fault-plan %s: %w", path, err)
	}
	fmt.Printf("almanacd: fault plan armed from %s (%d rule(s), seed %d)\n", path, len(plan.Rules), plan.Seed)
	return plan, nil
}

// openDevice loads the image (bringing the device up through the firmware
// rebuild path, as after power loss) or creates a fresh device. The image's
// geometry wins over the flags.
func openDevice(cfg core.Config, image string) (*core.TimeSSD, error) {
	if image == "" {
		return core.New(cfg)
	}
	f, err := os.Open(image)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Printf("almanacd: %s does not exist; starting with a fresh device\n", image)
		return core.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	arr, err := flash.ReadImage(f)
	if err != nil {
		return nil, err
	}
	// The image's geometry is authoritative: re-derive every size-dependent
	// parameter from it (watermarks, Bloom sizing, cohorts), keeping only
	// the operator's policy knobs.
	rebuilt := core.DefaultConfig(ftl.WithFlash(arr.Config()))
	rebuilt.MinRetention = cfg.MinRetention
	fmt.Printf("almanacd: rebuilding device state from %s\n", image)
	return core.Rebuild(arr, rebuilt)
}

// volSpec is one pre-provisioned volume from the -volumes flag.
type volSpec struct {
	name      string
	key       string
	pages     uint64
	retention vclock.Duration
}

// parseVolumeSpecs parses the -volumes flag: comma-separated
// name:pages[:key[:retention]] entries. An empty key means the volume is
// open to any client; an omitted retention accepts the device default.
// "" yields nil (nothing to pre-provision).
func parseVolumeSpecs(s string) ([]volSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []volSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("almanacd: -volumes entry %q: want name:pages[:key[:retention]]", entry)
		}
		sp := volSpec{name: parts[0]}
		if sp.name == "" {
			return nil, fmt.Errorf("almanacd: -volumes entry %q: empty volume name", entry)
		}
		pages, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil || pages == 0 {
			return nil, fmt.Errorf("almanacd: -volumes entry %q: bad page count %q", entry, parts[1])
		}
		sp.pages = pages
		if len(parts) >= 3 {
			sp.key = parts[2]
		}
		if len(parts) == 4 {
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("almanacd: -volumes entry %q: bad retention %q: %v", entry, parts[3], err)
			}
			sp.retention = vclock.Duration(d)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

func saveDevice(dev *core.TimeSSD, image string) error {
	tmp := image + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := dev.Arr.WriteImage(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, image)
}
