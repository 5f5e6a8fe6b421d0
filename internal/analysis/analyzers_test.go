package analysis

import (
	"math"
	"testing"
	"time"

	"smartusage/internal/trace"
)

func feed(t *testing.T, a Analyzer, samples []trace.Sample) {
	t.Helper()
	for i := range samples {
		a.Add(&samples[i])
	}
}

func TestAggregateMath(t *testing.T) {
	meta := testMeta(7) // Monday-start week: every hour-of-week occurs once
	b := &tb{meta: meta}
	// Two samples in the same hour: Monday 10:00 and 10:30.
	s := b.add(1, trace.Android, 0, 10, 0)
	s.CellRX = 450e4 // 4.5 MB
	s = b.add(1, trace.Android, 0, 10, 30)
	s.CellRX = 450e4

	agg := NewAggregate(meta)
	feed(t, agg, b.samples)
	r := agg.Result()
	bin := int(time.Monday)*24 + 10
	// 9 MB over one 3600 s occurrence = 9e6*8/3600 bps = 0.02 Mbps.
	want := 9e6 * 8 / 3600 / 1e6
	if math.Abs(r.CellRXMbps[bin]-want) > 1e-9 {
		t.Fatalf("rate %g want %g", r.CellRXMbps[bin], want)
	}
	if r.WiFiTrafficShare != 0 {
		t.Fatalf("wifi share %g", r.WiFiTrafficShare)
	}
}

func TestWiFiRatios(t *testing.T) {
	meta := testMeta(7)
	b := &tb{meta: meta}
	// Monday 12:00: device 1 on WiFi (30 MB), device 2 on cellular (10 MB).
	s := b.assoc(1, trace.Android, 0, 12, 0, 0x100, "aterm-a", -50)
	s.WiFiRX = 30e6
	s = b.add(2, trace.Android, 0, 12, 0)
	s.CellRX = 10e6

	p := b.prep(t, nil)
	wr := NewWiFiRatios(meta, p)
	feed(t, wr, b.samples)
	r := wr.Result()
	bin := int(time.Monday)*24 + 12
	if math.Abs(r.All.TrafficRatio[bin]-0.75) > 1e-9 {
		t.Fatalf("traffic ratio %g want 0.75", r.All.TrafficRatio[bin])
	}
	if math.Abs(r.All.UserRatio[bin]-0.5) > 1e-9 {
		t.Fatalf("user ratio %g want 0.5", r.All.UserRatio[bin])
	}
}

func TestInterfaceStateFractions(t *testing.T) {
	meta := testMeta(7)
	b := &tb{meta: meta}
	// Monday 14:00: Android off, on, associated; iOS associated.
	s := b.add(1, trace.Android, 0, 14, 0)
	s.WiFiState = trace.WiFiOff
	b.add(2, trace.Android, 0, 14, 0) // WiFiOn
	b.assoc(3, trace.Android, 0, 14, 0, 0x1, "x", -50)
	b.assoc(4, trace.IOS, 0, 14, 0, 0x2, "y", -50)

	is := NewInterfaceState(meta)
	feed(t, is, b.samples)
	r := is.Result()
	bin := int(time.Monday)*24 + 14
	third := 1.0 / 3
	if math.Abs(r.AndroidOff[bin]-third) > 1e-9 ||
		math.Abs(r.AndroidAvailable[bin]-third) > 1e-9 ||
		math.Abs(r.AndroidUser[bin]-third) > 1e-9 {
		t.Fatalf("android fractions %g %g %g", r.AndroidOff[bin], r.AndroidAvailable[bin], r.AndroidUser[bin])
	}
	if r.IOSUser[bin] != 1 {
		t.Fatalf("ios user %g", r.IOSUser[bin])
	}
}

func TestLocationTrafficShares(t *testing.T) {
	meta := testMeta(3)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	b.nightAssoc(dev, 0, 0x100, "aterm-a") // establishes home
	// Home WiFi traffic.
	s := b.assoc(dev, trace.Android, 1, 20, 0, 0x100, "aterm-a", -50)
	s.WiFiRX = 90e6
	// Public WiFi traffic.
	s = b.assoc(dev, trace.Android, 1, 12, 0, 0x200, "0000docomo", -60)
	s.WiFiRX = 10e6

	p := b.prep(t, nil)
	lt := NewLocationTraffic(meta, p)
	feed(t, lt, b.samples)
	r := lt.Result()
	if r.Share[APHome] <= r.Share[APPublic] {
		t.Fatalf("home share %g <= public %g", r.Share[APHome], r.Share[APPublic])
	}
	if math.Abs(r.Share[APPublic]-10e6/(100e6+float64(48*0))) > 0.1 {
		// night assoc samples carry no traffic; shares are 0.9/0.1.
		t.Fatalf("public share %g", r.Share[APPublic])
	}
}

func TestAPsPerDayAndHPO(t *testing.T) {
	meta := testMeta(3)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	b.nightAssoc(dev, 0, 0x100, "aterm-a")
	// Day 1: home + public + other = HPO 111.
	b.assoc(dev, trace.Android, 1, 8, 0, 0x100, "aterm-a", -50)
	b.assoc(dev, trace.Android, 1, 12, 0, 0x200, "0000docomo", -60)
	b.assoc(dev, trace.Android, 1, 19, 0, 0x300, "cafe-z", -65)
	// Day 2: home only.
	b.assoc(dev, trace.Android, 2, 8, 0, 0x100, "aterm-a", -50)

	p := b.prep(t, nil)
	apd := NewAPsPerDay(meta, p)
	feed(t, apd, b.samples)
	r := apd.Result()
	if r.MaxNetworks != 3 {
		t.Fatalf("max networks %d", r.MaxNetworks)
	}
	if got := r.Breakdown[HPO{H: 1, P: 1, O: 1}]; got == 0 {
		t.Fatal("HPO 111 day missing")
	}
	if got := r.Breakdown[HPO{H: 1}]; got == 0 {
		t.Fatal("HPO 100 days missing")
	}
	top := r.TopBreakdown()
	if len(top) == 0 || top[0].HPO != (HPO{H: 1}) {
		t.Fatalf("top breakdown %+v", top)
	}
}

func TestAssocDurationRuns(t *testing.T) {
	meta := testMeta(3)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	// A 6-bin continuous run (1 hour).
	for m := 0; m < 60; m += 10 {
		b.assoc(dev, trace.Android, 0, 10, m, 0x200, "0000docomo", -60)
	}
	// Gap (non-associated sample) then a 1-bin run.
	b.add(dev, trace.Android, 0, 12, 0)
	b.assoc(dev, trace.Android, 0, 13, 0, 0x200, "0000docomo", -60)

	p := b.prep(t, nil)
	ad := NewAssocDuration(meta, p, false)
	feed(t, ad, b.samples)
	r := ad.Result()
	hours := r.Hours[APPublic].Values() // sorted ascending
	if len(hours) != 2 {
		t.Fatalf("runs %v", hours)
	}
	if math.Abs(hours[0]-1.0/6) > 1e-9 {
		t.Fatalf("short run %g h, want 10 min", hours[0])
	}
	if math.Abs(hours[1]-1.0) > 1e-9 {
		t.Fatalf("long run %g h, want 1", hours[1])
	}
}

func TestAssocDurationToleratesOneGap(t *testing.T) {
	meta := testMeta(2)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	b.assoc(dev, trace.Android, 0, 10, 0, 0x200, "0000docomo", -60)
	// Missing report at 10:10 (no sample at all), then continue at 10:20.
	b.assoc(dev, trace.Android, 0, 10, 20, 0x200, "0000docomo", -60)
	p := b.prep(t, nil)
	ad := NewAssocDuration(meta, p, false)
	feed(t, ad, b.samples)
	r := ad.Result()
	if len(r.Hours[APPublic].Values()) != 1 {
		t.Fatalf("gap split the run: %v", r.Hours[APPublic].Values())
	}
}

func TestAppBreakdownScenes(t *testing.T) {
	meta := testMeta(3)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	b.nightAssoc(dev, 0, 0x100, "aterm-a") // home cell (10,10), home AP

	// Cellular at home (home cell).
	s := b.add(dev, trace.Android, 1, 9, 0)
	s.CellRX = 1000
	s.Apps = []trace.AppTraffic{{Category: trace.CatNews, Iface: trace.Cellular, RX: 1000}}
	// Cellular away.
	s = b.add(dev, trace.Android, 1, 10, 0)
	s.GeoCX = 20
	s.CellRX = 2000
	s.Apps = []trace.AppTraffic{{Category: trace.CatGame, Iface: trace.Cellular, RX: 2000}}
	// WiFi at home.
	s = b.assoc(dev, trace.Android, 1, 20, 0, 0x100, "aterm-a", -50)
	s.WiFiRX = 3000
	s.Apps = []trace.AppTraffic{{Category: trace.CatVideo, Iface: trace.WiFi, RX: 3000}}
	// WiFi public.
	s = b.assoc(dev, trace.Android, 1, 12, 0, 0x200, "0000docomo", -60)
	s.WiFiRX = 4000
	s.Apps = []trace.AppTraffic{{Category: trace.CatBrowser, Iface: trace.WiFi, RX: 4000}}
	// iOS sample must be ignored.
	s = b.add(2, trace.IOS, 1, 12, 0)
	s.CellRX = 555

	p := b.prep(t, nil)
	ab := NewAppBreakdown(meta, p)
	feed(t, ab, b.samples)
	r := ab.Result()
	checks := []struct {
		scene AppScene
		cat   trace.Category
	}{
		{AppCellHome, trace.CatNews},
		{AppCellOther, trace.CatGame},
		{AppWiFiHome, trace.CatVideo},
		{AppWiFiPublic, trace.CatBrowser},
	}
	for _, c := range checks {
		if len(r.RX[c.scene]) != 1 || r.RX[c.scene][0].Category != c.cat {
			t.Fatalf("%v: got %+v want only %v", c.scene, r.RX[c.scene], c.cat)
		}
		if r.RX[c.scene][0].Share != 1 {
			t.Fatalf("%v share %g", c.scene, r.RX[c.scene][0].Share)
		}
	}
	if ShareOf(r.RX[AppWiFiHome], trace.CatVideo) != 1 || RankIndex(r.RX[AppWiFiHome], trace.CatVideo) != 0 {
		t.Fatal("ShareOf/RankIndex wrong")
	}
	if ShareOf(r.RX[AppWiFiHome], trace.CatGame) != 0 || RankIndex(r.RX[AppWiFiHome], trace.CatGame) != -1 {
		t.Fatal("missing category lookups wrong")
	}
}

func TestPublicAvailabilityCounting(t *testing.T) {
	meta := testMeta(2)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	// Enough available bins to qualify for the §3.5 estimates.
	for i := 0; i < 40; i++ {
		s := b.add(dev, trace.Android, 0, 8+(i/6), (i%6)*10)
		s.CellRX = 1000
		s.APs = []trace.APObs{
			{BSSID: 0x600, ESSID: "0000docomo", RSSI: -60, Band: trace.Band24},
			{BSSID: 0x601, ESSID: "0001softbank", RSSI: -85, Band: trace.Band24},
			{BSSID: 0x602, ESSID: "au_Wi-Fi", RSSI: -65, Band: trace.Band5},
			{BSSID: 0x603, ESSID: "aterm-zz", RSSI: -50, Band: trace.Band24}, // not public
		}
	}
	p := b.prep(t, nil)
	pa := NewPublicAvailability(p)
	feed(t, pa, b.samples)
	r := pa.Result()
	// Each interval: two 2.4 GHz public (one strong), one strong 5 GHz.
	if r.Frac24Under10 != 1 {
		t.Fatalf("under10 %g", r.Frac24Under10)
	}
	if r.Dev5AnyFrac != 1 || r.Dev5StrongFrac != 1 {
		t.Fatalf("5 GHz device fracs %g %g", r.Dev5AnyFrac, r.Dev5StrongFrac)
	}
	if r.OffloadableFrac != 1 {
		t.Fatalf("offloadable %g (every interval has a strong public AP)", r.OffloadableFrac)
	}
	if r.StrongOpportunityFrac != 1 {
		t.Fatalf("opportunity %g", r.StrongOpportunityFrac)
	}
	// Every interval sees exactly two 2.4 GHz public APs, so the CCDF
	// collapses to a single point at X=2 with P[v > 2] = 0.
	if pts := r.CCDF24All.Points; len(pts) != 1 || pts[0].X != 2 || pts[0].Y != 0 {
		t.Fatalf("CCDF points %+v", r.CCDF24All.Points)
	}
}

func TestCapEffectMath(t *testing.T) {
	meta := testMeta(8)
	b := &tb{meta: meta}
	const dev = trace.DeviceID(1)
	// Days 0-2: 500 MB/day each (trailing 1.5 GB > 1 GB for day 3).
	for d := 0; d < 3; d++ {
		s := b.add(dev, trace.Android, d, 12, 0)
		s.CellRX = 500 << 20
	}
	// Day 3: 150 MB → ratio 150/500 = 0.3, potentially capped.
	s := b.add(dev, trace.Android, 3, 12, 0)
	s.CellRX = 150 << 20

	// An uncapped device: 100 MB/day steady.
	const dev2 = trace.DeviceID(2)
	for d := 0; d < 4; d++ {
		s := b.add(dev2, trace.Android, d, 12, 0)
		s.CellRX = 100 << 20
	}

	p := b.prep(t, nil)
	r := p.CapEffect()
	if len(r.CappedRatios) != 1 || math.Abs(r.CappedRatios[0]-0.3) > 1e-9 {
		t.Fatalf("capped ratios %v", r.CappedRatios)
	}
	if len(r.OtherRatios) != 1 || math.Abs(r.OtherRatios[0]-1.0) > 1e-9 {
		t.Fatalf("other ratios %v", r.OtherRatios)
	}
	if r.CappedUserFrac != 0.5 {
		t.Fatalf("capped user frac %g", r.CappedUserFrac)
	}
	if math.Abs(r.MedianGap-0.7) > 1e-9 {
		t.Fatalf("median gap %g", r.MedianGap)
	}
	if r.HalvedFracCapped != 1 || r.HalvedFracOther != 0 {
		t.Fatalf("halved fracs %g %g", r.HalvedFracCapped, r.HalvedFracOther)
	}
	if r.CappedNoHomeAPFrac != 1 {
		t.Fatalf("capped no-home frac %g (device has no home AP)", r.CappedNoHomeAPFrac)
	}
}

func TestVolumeStatsAndDailyVolumes(t *testing.T) {
	meta := testMeta(1)
	b := &tb{meta: meta}
	// Device 1: 10 MB cell; device 2: 30 MB wifi; device 3: zero traffic.
	s := b.add(1, trace.Android, 0, 12, 0)
	s.CellRX, s.CellTX = 10e6, 1e6
	s = b.add(2, trace.Android, 0, 12, 0)
	s.WiFiRX, s.WiFiTX = 30e6, 2e6
	s.WiFiState = trace.WiFiOn
	b.add(3, trace.Android, 0, 12, 0)

	vol := NewVolumes(meta, false)
	feed(t, vol, b.samples)
	v, st := vol.Result()
	if len(v.AllRX.Values()) != 2 {
		t.Fatalf("AllRX %v (zero-traffic day must be filtered)", v.AllRX.Values())
	}
	if math.Abs(v.ZeroCellFrac-2.0/3) > 1e-9 || math.Abs(v.ZeroWiFiFrac-2.0/3) > 1e-9 {
		t.Fatalf("zero fracs %g %g", v.ZeroCellFrac, v.ZeroWiFiFrac)
	}
	if v.MaxRXMB != 30 {
		t.Fatalf("max %g", v.MaxRXMB)
	}
	if math.Abs(st.MedianAll-20) > 1e-9 {
		t.Fatalf("median all %g", st.MedianAll)
	}
	if math.Abs(st.MeanCell-5) > 1e-9 || math.Abs(st.MeanWiFi-15) > 1e-9 {
		t.Fatalf("means %g %g", st.MeanCell, st.MeanWiFi)
	}
}

func TestUserTypesClassification(t *testing.T) {
	meta := testMeta(2)
	b := &tb{meta: meta}
	// Cellular-intensive: all cellular.
	for d := 0; d < 2; d++ {
		s := b.add(1, trace.Android, d, 12, 0)
		s.CellRX = 50e6
	}
	// WiFi-intensive.
	for d := 0; d < 2; d++ {
		s := b.add(2, trace.Android, d, 12, 0)
		s.WiFiRX = 50e6
		s.WiFiState = trace.WiFiOn
	}
	// Mixed, above diagonal one day, below the other.
	s := b.add(3, trace.Android, 0, 12, 0)
	s.CellRX, s.WiFiRX = 10e6, 40e6
	s.WiFiState = trace.WiFiOn
	s = b.add(3, trace.Android, 1, 12, 0)
	s.CellRX, s.WiFiRX = 40e6, 10e6
	s.WiFiState = trace.WiFiOn

	p := b.prep(t, nil)
	ut := p.UserTypes()
	third := 1.0 / 3
	if math.Abs(ut.CellularIntensiveFrac-third) > 1e-9 ||
		math.Abs(ut.WiFiIntensiveFrac-third) > 1e-9 ||
		math.Abs(ut.MixedFrac-third) > 1e-9 {
		t.Fatalf("type fractions %g %g %g", ut.CellularIntensiveFrac, ut.WiFiIntensiveFrac, ut.MixedFrac)
	}
	if math.Abs(ut.MixedAboveDiagonal-0.5) > 1e-9 {
		t.Fatalf("above diagonal %g", ut.MixedAboveDiagonal)
	}
}

func TestOverview(t *testing.T) {
	meta := testMeta(1)
	b := &tb{meta: meta}
	s := b.add(1, trace.Android, 0, 12, 0)
	s.CellRX = 100
	s.RAT = trace.RATLTE
	s = b.add(2, trace.IOS, 0, 13, 0)
	s.CellRX = 100
	s.RAT = trace.RAT3G
	s = b.add(2, trace.IOS, 0, 14, 0)
	s.WiFiRX = 200
	s.WiFiState = trace.WiFiOn

	p := b.prep(t, nil)
	o := p.Overview()
	if o.NumAndroid != 1 || o.NumIOS != 1 || o.Total != 2 {
		t.Fatalf("counts %+v", o)
	}
	if math.Abs(o.LTEShare-0.5) > 1e-9 {
		t.Fatalf("LTE share %g", o.LTEShare)
	}
	if math.Abs(o.WiFiShare-0.5) > 1e-9 {
		t.Fatalf("WiFi share %g", o.WiFiShare)
	}
}

func TestAPCensusAndDensity(t *testing.T) {
	meta := testMeta(2)
	b := &tb{meta: meta}
	b.nightAssoc(1, 0, 0x100, "aterm-a")                      // home
	b.assoc(1, trace.Android, 1, 12, 0, 0x200, "7SPOT", -60)  // public assoc
	b.assoc(1, trace.Android, 1, 19, 0, 0x300, "cafe-q", -60) // other assoc
	s := b.add(1, trace.Android, 1, 12, 10)                   // public detected only
	s.APs = []trace.APObs{{BSSID: 0x201, ESSID: "7SPOT", RSSI: -72, Band: trace.Band24}}

	p := b.prep(t, nil)
	c := p.APCensus()
	if c.Home != 1 || c.Public != 2 || c.Other != 1 {
		t.Fatalf("census %+v", c)
	}
	if c.Total != 4 {
		t.Fatalf("total %d", c.Total)
	}
	d := p.APDensity()
	if d.Public.At(10, 10) != 2 || d.Home.At(10, 10) != 1 {
		t.Fatalf("density grids wrong: public=%d home=%d", d.Public.At(10, 10), d.Home.At(10, 10))
	}
	if d.PublicCellsAny != 1 {
		t.Fatalf("cells any %d", d.PublicCellsAny)
	}
}

func TestBandShareAndChannels(t *testing.T) {
	meta := testMeta(2)
	b := &tb{meta: meta}
	// Two associated public APs: one per band; home AP on 2.4 channel 1.
	b.nightAssoc(1, 0, 0x100, "aterm-a")
	for i := range b.samples {
		b.samples[i].APs[0].Channel = 1
	}
	b.assoc(1, trace.Android, 1, 12, 0, 0x200, "7SPOT", -60)
	s := b.assoc(1, trace.Android, 1, 13, 0, 0x201, "7SPOT", -60)
	s.APs[0].Band = trace.Band5
	s.APs[0].Channel = 36

	p := b.prep(t, nil)
	bs := p.BandShare()
	if bs.Home != 0 || math.Abs(bs.Public-0.5) > 1e-9 {
		t.Fatalf("band share %+v", bs)
	}
	ch := p.Channels()
	if ch.Ch1Home != 1 {
		t.Fatalf("home ch1 %g", ch.Ch1Home)
	}
	if math.Abs(ch.Public[6]-1) > 1e-9 {
		t.Fatalf("public channels %v", ch.Public)
	}
}

func TestRSSIResult(t *testing.T) {
	meta := testMeta(2)
	b := &tb{meta: meta}
	b.nightAssoc(1, 0, 0x100, "aterm-a") // RSSI -50
	b.assoc(1, trace.Android, 1, 12, 0, 0x200, "7SPOT", -75)
	b.assoc(1, trace.Android, 1, 13, 0, 0x201, "7SPOT", -60)

	p := b.prep(t, nil)
	r := p.RSSI()
	if math.Abs(r.MeanHome-(-50)) > 1e-9 {
		t.Fatalf("home mean %g", r.MeanHome)
	}
	if math.Abs(r.MeanPub-(-67.5)) > 1e-9 {
		t.Fatalf("public mean %g", r.MeanPub)
	}
	if math.Abs(r.WeakFracPub-0.5) > 1e-9 {
		t.Fatalf("weak pub %g", r.WeakFracPub)
	}
	if r.WeakFracHome != 0 {
		t.Fatalf("weak home %g", r.WeakFracHome)
	}
}

func TestGrowthTable(t *testing.T) {
	years := []VolumeStats{
		{Year: 2013, MedianAll: 57.9, MedianCell: 19.5, MedianWiFi: 9.2, MeanAll: 102.9, MeanCell: 42.2, MeanWiFi: 60.7},
		{Year: 2014, MedianAll: 90.3, MedianCell: 27.6, MedianWiFi: 24.3, MeanAll: 179.9, MeanCell: 58.5, MeanWiFi: 121.5},
		{Year: 2015, MedianAll: 126.5, MedianCell: 35.6, MedianWiFi: 50.7, MeanAll: 239.5, MeanCell: 71.5, MeanWiFi: 168.1},
	}
	g, err := Growth(years)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.AGRMedianAll-0.48) > 0.02 || math.Abs(g.AGRMedianWiFi-1.34) > 0.03 {
		t.Fatalf("AGRs %+v", g)
	}
	if _, err := Growth(years[:1]); err == nil {
		t.Fatal("single year accepted")
	}
}
