package rubis

import (
	"testing"

	"vwchar/internal/rng"
)

// smallDataset keeps test setup fast.
func smallDataset() DatasetConfig {
	return DatasetConfig{
		Regions:         10,
		Categories:      8,
		Users:           400,
		ActiveItems:     150,
		OldItems:        250,
		BidsPerItem:     3,
		CommentsPerUser: 1,
		BufferPages:     256,
	}
}

func newTestApp(t *testing.T) *App {
	t.Helper()
	app, err := NewApp(smallDataset(), rng.NewSource(7).Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestDatasetPopulation(t *testing.T) {
	app := newTestApp(t)
	if app.TotalUsers() != 400 {
		t.Fatalf("users = %d", app.TotalUsers())
	}
	if app.TotalItems() != 400 {
		t.Fatalf("items = %d", app.TotalItems())
	}
	// Spot-check the data is queryable.
	users, err := app.Engine.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if found, err := users.Get(200, nil); err != nil || !found {
		t.Fatalf("user 200 missing: %v", err)
	}
	bids, _ := app.Engine.Table("bids")
	if bids.Rows() == 0 {
		t.Fatal("no bids populated")
	}
}

func TestDatasetConfigValidate(t *testing.T) {
	for _, cfg := range []DatasetConfig{DefaultDataset(), smallDataset()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
	// Old items alone are a valid item population.
	cfg := smallDataset()
	cfg.ActiveItems = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("no active items: %v", err)
	}
	cfg.OldItems = 0
	if cfg.Validate() == nil {
		t.Fatal("a dataset with no items validated")
	}
}

func TestAllInteractionsExecute(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("exec")
	params := DefaultCostParams()
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
	for _, kind := range AllInteractions() {
		res, err := app.Execute(kind, sess, r, params)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Interaction != kind {
			t.Fatalf("%s: wrong interaction in result", kind)
		}
		if res.WebCycles <= 0 {
			t.Fatalf("%s: no web cycles", kind)
		}
		if res.ResponseBytes <= 0 || res.RequestBytes <= 0 {
			t.Fatalf("%s: missing transfer sizes", kind)
		}
		for qi, q := range res.Queries {
			if q.Receipt.CPUCycles <= 0 {
				t.Fatalf("%s query %d: no DB cycles", kind, qi)
			}
			if q.RequestBytes <= 0 {
				t.Fatalf("%s query %d: no request bytes", kind, qi)
			}
		}
	}
	if _, err := app.Execute(Interaction(NumInteractions), sess, r, params); err == nil {
		t.Fatal("unknown interaction should error")
	}
}

func TestWriteInteractionsPersist(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("w")
	params := DefaultCostParams()
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, ToUserID: 7}

	bidsBefore := app.Engine.MustTable("bids").Rows()
	res, err := app.Execute(StoreBid, sess, r, params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsWrite {
		t.Fatal("StoreBid should be a write")
	}
	if app.Engine.MustTable("bids").Rows() != bidsBefore+1 {
		t.Fatal("StoreBid did not insert")
	}
	// The bid also bumps the item's counters.
	items := app.Engine.MustTable("items")
	var nbBids int64
	if _, err := items.Get(10, func(tuple []byte) { nbBids = items.Schema.Int64At(tuple, 7) }); err != nil {
		t.Fatal(err)
	}
	if nbBids != 1 {
		t.Fatalf("nb_bids = %d after StoreBid", nbBids)
	}

	usersBefore := app.TotalUsers()
	if _, err := app.Execute(RegisterUser, sess, r, params); err != nil {
		t.Fatal(err)
	}
	if app.TotalUsers() != usersBefore+1 {
		t.Fatal("RegisterUser did not create a user")
	}

	itemsBefore := app.TotalItems()
	if _, err := app.Execute(RegisterItem, sess, r, params); err != nil {
		t.Fatal(err)
	}
	if app.TotalItems() != itemsBefore+1 {
		t.Fatal("RegisterItem did not create an item")
	}

	if _, err := app.Execute(StoreComment, sess, r, params); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Execute(StoreBuyNow, sess, r, params); err != nil {
		t.Fatal(err)
	}
}

func TestReadsAreNotWrites(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("ro")
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, ToUserID: 7}
	for _, kind := range []Interaction{Home, SearchItemsInCategory, ViewItem, ViewUserInfo, ViewBidHistory, AboutMe} {
		res, err := app.Execute(kind, sess, r, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		if res.IsWrite {
			t.Fatalf("%s should not be a write", kind)
		}
	}
}

func TestDBTransferAccounting(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("xfer")
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, ToUserID: 7}
	res, err := app.Execute(ViewItem, sess, r, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	toDB, fromDB := res.DBTransferBytes()
	if toDB <= 0 || fromDB <= 0 {
		t.Fatalf("ViewItem transfers: to=%v from=%v", toDB, fromDB)
	}
	if res.TotalDBCycles() <= 0 {
		t.Fatal("ViewItem should consume DB cycles")
	}
	// Menu pages are served from the app-tier cache: no DB calls.
	res, err = app.Execute(BrowseCategories, sess, r, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 0 {
		t.Fatal("BrowseCategories should not hit the DB (cached menu)")
	}
}

func TestMixValidation(t *testing.T) {
	for _, m := range []*Mix{BrowsingMix(), BiddingMix()} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

func TestBrowsingMixIsReadOnly(t *testing.T) {
	m := BrowsingMix()
	writes := map[Interaction]bool{
		RegisterUser: true, RegisterItem: true, StoreBid: true,
		StoreBuyNow: true, StoreComment: true,
	}
	for _, s := range m.States() {
		if writes[s] {
			t.Fatalf("browsing mix contains write state %s", s)
		}
	}
}

func TestBiddingMixReachesWrites(t *testing.T) {
	m := BiddingMix()
	r := rng.NewSource(3).Stream("walk")
	seen := map[Interaction]bool{}
	cur := m.Start()
	for i := 0; i < 20000; i++ {
		cur = m.Next(cur, r)
		seen[cur] = true
	}
	for _, want := range []Interaction{StoreBid, StoreBuyNow, StoreComment, RegisterItem, RegisterUser} {
		if !seen[want] {
			t.Fatalf("bidding mix never reached %s in 20k steps", want)
		}
	}
}

func TestMixThinkTimes(t *testing.T) {
	browse, bid := BrowsingMix(), BiddingMix()
	if browse.ThinkMeanSeconds != 7.0 {
		t.Fatalf("browse think = %v, paper sets 7 s", browse.ThinkMeanSeconds)
	}
	if bid.ThinkMeanSeconds <= browse.ThinkMeanSeconds {
		t.Fatal("bidding think time should be longer (paper §4.1)")
	}
	r := rng.NewSource(3).Stream("think")
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += browse.Think(r)
	}
	if mean := sum / n; mean < 6.8 || mean > 7.2 {
		t.Fatalf("think sample mean = %v", mean)
	}
}

func TestMixUnknownStateRestarts(t *testing.T) {
	m := BrowsingMix()
	r := rng.NewSource(3).Stream("x")
	for _, cur := range []Interaction{StoreBid, Interaction(NumInteractions)} {
		if next := m.Next(cur, r); next != m.Start() {
			t.Fatalf("%s has no row and should restart at %s, got %s", cur, m.Start(), next)
		}
	}
}

func TestCompositeMix(t *testing.T) {
	c := NewCompositeMix(0.7)
	if c.Name != "70%browse-30%bid" {
		t.Fatalf("name = %q", c.Name)
	}
	r := rng.NewSource(3).Stream("comp")
	seen := map[Interaction]bool{}
	cur := c.Start()
	for i := 0; i < 50000; i++ {
		cur = c.Next(cur, r)
		seen[cur] = true
	}
	if !seen[StoreBid] {
		t.Fatal("composite mix should reach bid states")
	}
	if !seen[ViewItem] {
		t.Fatal("composite mix should reach browse states")
	}
	think := c.Think(r)
	if think < 0 {
		t.Fatalf("think = %v", think)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range browse fraction should panic")
		}
	}()
	NewCompositeMix(1.5)
}

func TestMixStationaryWriteFraction(t *testing.T) {
	m := BiddingMix()
	r := rng.NewSource(11).Stream("wf")
	writes := map[Interaction]bool{
		RegisterUser: true, RegisterItem: true, StoreBid: true,
		StoreBuyNow: true, StoreComment: true,
	}
	count := 0
	cur := m.Start()
	const n = 100000
	for i := 0; i < n; i++ {
		cur = m.Next(cur, r)
		if writes[cur] {
			count++
		}
	}
	frac := float64(count) / n
	// The RUBiS bidding mix is ~10-15% read-write interactions; our
	// table should land in a sane band.
	if frac < 0.04 || frac > 0.2 {
		t.Fatalf("write fraction = %v", frac)
	}
}

// TestInteractionNames pins the dense kinds to their RUBiS names: kind
// i is AllInteractions()[i], and String returns the name every report
// and digest prints.
func TestInteractionNames(t *testing.T) {
	want := []string{
		"Home", "Register", "RegisterUser", "Browse", "BrowseCategories",
		"SearchItemsInCategory", "BrowseRegions", "BrowseCategoriesInRegion",
		"SearchItemsInRegion", "ViewItem", "ViewUserInfo", "ViewBidHistory",
		"BuyNowAuth", "BuyNow", "StoreBuyNow", "PutBidAuth", "PutBid", "StoreBid",
		"PutCommentAuth", "PutComment", "StoreComment", "Sell",
		"SelectCategoryToSellItem", "SellItemForm", "RegisterItem", "AboutMe",
	}
	all := AllInteractions()
	if len(all) != NumInteractions || len(want) != NumInteractions {
		t.Fatalf("%d interactions, %d names, NumInteractions = %d", len(all), len(want), NumInteractions)
	}
	for i, k := range all {
		if k != Interaction(i) || k.String() != want[i] {
			t.Fatalf("AllInteractions()[%d] = %d %q, want %d %q", i, k, k.String(), i, want[i])
		}
	}
	if got := Interaction(NumInteractions).String(); got != "Interaction(26)" {
		t.Fatalf("out-of-range kind prints %q", got)
	}
}

// TestMixNextMatchesTableRows checks the precomputed rows against the
// declared edges: from every state, Next draws exactly what Categorical
// over the declared weights, in declaration order, draws from the same
// stream, and it allocates nothing.
func TestMixNextMatchesTableRows(t *testing.T) {
	for _, m := range []*Mix{BrowsingMix(), BiddingMix()} {
		for _, from := range m.States() {
			edges := m.rows[from]
			weights := make([]float64, len(edges))
			for i, e := range edges {
				weights[i] = e.p
			}
			got, want := rng.NewStream(3), rng.NewStream(3)
			for i := 0; i < 200; i++ {
				if g, w := m.Next(from, got), edges[want.Categorical(weights)].to; g != w {
					t.Fatalf("%s: %s draw %d = %s, table says %s", m.Name, from, i, g, w)
				}
			}
			if n := testing.AllocsPerRun(100, func() { m.Next(from, got) }); n != 0 {
				t.Fatalf("%s: Next from %s allocates %v times", m.Name, from, n)
			}
		}
	}
}
