// Package rubis models the RUBiS auction-site benchmark (the eBay-like
// three-tier application the paper drives): the relational schema and
// dataset, the 26 client interaction types, and the browse/bid Markov
// transition tables that generate the two request compositions the paper
// reports.
//
// Interactions execute real queries against the rubisdb storage engine;
// their cost receipts plus the web-tier templating model produce the
// per-request resource demands that the tier servers replay in simulated
// time.
package rubis

import (
	"fmt"
	"math"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// DatasetConfig scales the generated auction dataset. Defaults follow
// the RUBiS distribution's shape, scaled to keep experiment setup fast.
type DatasetConfig struct {
	Regions         int
	Categories      int
	Users           int
	ActiveItems     int
	OldItems        int
	BidsPerItem     int
	CommentsPerUser int
	BufferPages     int
}

// DefaultDataset returns the standard scaled dataset.
func DefaultDataset() DatasetConfig {
	return DatasetConfig{
		Regions:         62,
		Categories:      20,
		Users:           12000,
		ActiveItems:     3600,
		OldItems:        7800,
		BidsPerItem:     6,
		CommentsPerUser: 2,
		// BufferPages is sized below the dataset's working set so the
		// engine sustains a realistic miss stream (the paper's MySQL
		// tier shows continuous disk reads, not a one-time warmup).
		BufferPages: 950,
	}
}

// Validate rejects a dataset population cannot build: a non-positive
// region, category, user or buffer-page count, no items at all, or a
// negative item, bid or comment count.
func (c DatasetConfig) Validate() error {
	for _, f := range []struct {
		name     string
		v, least int
	}{
		{"Regions", c.Regions, 1}, {"Categories", c.Categories, 1},
		{"Users", c.Users, 1}, {"BufferPages", c.BufferPages, 1},
		{"ActiveItems", c.ActiveItems, 0}, {"OldItems", c.OldItems, 0},
		{"BidsPerItem", c.BidsPerItem, 0}, {"CommentsPerUser", c.CommentsPerUser, 0},
		{"ActiveItems+OldItems", c.ActiveItems + c.OldItems, 1},
	} {
		if f.v < f.least {
			return fmt.Errorf("rubis: dataset %s = %d, want at least %d", f.name, f.v, f.least)
		}
	}
	return nil
}

// App is one populated RUBiS database plus its interaction logic.
type App struct {
	Engine *rubisdb.Engine
	Config DatasetConfig

	// catWeights and regWeights skew browsing toward popular categories
	// and regions (Zipf-like), giving the buffer pool a realistic hot
	// set instead of a uniform scan.
	catWeights []float64
	regWeights []float64

	users, items, bids, comments, buyNow, categories, regions *rubisdb.Table

	cols columns
	// ids is the reused id scratch of collect.
	ids []int64

	// nextItemID etc. hand out primary keys for runtime writes.
	nextItemID    int64
	nextBidID     int64
	nextCommentID int64
	nextBuyNowID  int64
	nextUserID    int64

	// snap is non-nil while this App is an attached copy-on-write view
	// of a golden Snapshot; Release returns it to the snapshot's pool.
	snap *Snapshot
}

// NewApp creates the schema and populates the dataset using the given
// random stream.
func NewApp(cfg DatasetConfig, r *rng.Stream) (*App, error) {
	a := &App{
		Engine: rubisdb.NewEngine(cfg.BufferPages, rubisdb.DefaultCostModel()),
		Config: cfg,
	}
	if err := a.createSchema(); err != nil {
		return nil, err
	}
	if err := a.bindColumns(); err != nil {
		return nil, err
	}
	if err := a.populate(r); err != nil {
		return nil, err
	}
	a.catWeights = zipfWeights(cfg.Categories, 1.1)
	a.regWeights = zipfWeights(cfg.Regions, 1.1)
	return a, nil
}

// zipfWeights returns weights proportional to 1/(rank+1)^skew.
func zipfWeights(n int, skew float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), skew)
	}
	return w
}

func (a *App) createSchema() error {
	var err error
	a.regions, err = a.Engine.CreateTable("regions", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
	}, "id")
	if err != nil {
		return err
	}
	a.categories, err = a.Engine.CreateTable("categories", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
	}, "id")
	if err != nil {
		return err
	}
	a.users, err = a.Engine.CreateTable("users", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "nickname", Type: rubisdb.TString},
		{Name: "region", Type: rubisdb.TInt64},
		{Name: "rating", Type: rubisdb.TInt64},
		{Name: "balance", Type: rubisdb.TFloat64},
	}, "id", "region")
	if err != nil {
		return err
	}
	a.items, err = a.Engine.CreateTable("items", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
		{Name: "description", Type: rubisdb.TString},
		{Name: "seller", Type: rubisdb.TInt64},
		{Name: "category", Type: rubisdb.TInt64},
		{Name: "initial_price", Type: rubisdb.TFloat64},
		{Name: "max_bid", Type: rubisdb.TFloat64},
		{Name: "nb_bids", Type: rubisdb.TInt64},
		{Name: "quantity", Type: rubisdb.TInt64},
		{Name: "buy_now", Type: rubisdb.TFloat64},
		{Name: "end_date", Type: rubisdb.TInt64},
	}, "id", "seller", "category")
	if err != nil {
		return err
	}
	a.bids, err = a.Engine.CreateTable("bids", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "user", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "qty", Type: rubisdb.TInt64},
		{Name: "bid", Type: rubisdb.TFloat64},
		{Name: "date", Type: rubisdb.TInt64},
	}, "id", "user", "item")
	if err != nil {
		return err
	}
	a.comments, err = a.Engine.CreateTable("comments", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "from_user", Type: rubisdb.TInt64},
		{Name: "to_user", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "rating", Type: rubisdb.TInt64},
		{Name: "text", Type: rubisdb.TString},
	}, "id", "to_user", "item")
	if err != nil {
		return err
	}
	a.buyNow, err = a.Engine.CreateTable("buy_now", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "buyer", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "qty", Type: rubisdb.TInt64},
		{Name: "date", Type: rubisdb.TInt64},
	}, "id", "buyer", "item")
	return err
}

// columns holds the indexes of the columns the interactions read and
// write. They are resolved by name once, when an App is built, so the
// query path never looks a column up.
type columns struct {
	userID, userRegion               int
	itemID, itemSeller, itemCategory int
	itemMaxBid, itemNbBids           int
	bidUser, bidItem                 int
	commentToUser                    int
}

// bindColumns resolves a.cols from the tables' schemas.
func (a *App) bindColumns() error {
	var err error
	col := func(t *rubisdb.Table, name string) int {
		i, e := t.Schema.ColIndex(name)
		if err == nil && e != nil {
			err = fmt.Errorf("table %s: %w", t.Name, e)
		}
		return i
	}
	a.cols = columns{
		userID:        col(a.users, "id"),
		userRegion:    col(a.users, "region"),
		itemID:        col(a.items, "id"),
		itemSeller:    col(a.items, "seller"),
		itemCategory:  col(a.items, "category"),
		itemMaxBid:    col(a.items, "max_bid"),
		itemNbBids:    col(a.items, "nb_bids"),
		bidUser:       col(a.bids, "user"),
		bidItem:       col(a.bids, "item"),
		commentToUser: col(a.comments, "to_user"),
	}
	return err
}

// itemDescription is the synthetic description text stored per item;
// its length drives tuple size, page counts, and therefore buffer pool
// behaviour.
const itemDescription = "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do " +
	"eiusmod tempor incididunt ut labore et dolore magna aliqua. Ut enim ad minim " +
	"veniam, quis nostrud exercitation ullamco laboris nisi ut aliquip ex ea commodo."

// commentText is the synthetic text stored per comment.
const commentText = "Great seller, fast shipping, item exactly as described."

// appendName appends prefix + zero-padded i to dst exactly like
// fmt.Sprintf(prefix+"%0<width>d", i), but without the fmt machinery
// or a string: population names tens of thousands of rows per dataset,
// and a write names one row per request.
func appendName(dst []byte, prefix string, i, width int) []byte {
	dst = append(dst, prefix...)
	start := len(dst)
	n := 1
	for lim := 10; n < width || i >= lim; lim *= 10 {
		n++
	}
	for j := 0; j < n; j++ {
		dst = append(dst, '0')
	}
	for p := len(dst) - 1; p >= start; p-- {
		dst[p] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// populate loads the dataset through the engine's sorted bulk path:
// every table's rows are generated in primary-key order (the RNG draw
// sequence is identical to row-at-a-time insertion), appended to the
// heap once, and indexed via the B+tree bulk loader — instead of ~60k
// one-at-a-time Insert descents at the start of every replication.
// Each row is encoded straight into its table's tuple buffer.
func (a *App) populate(r *rng.Stream) error {
	cfg := a.Config
	totalItems := cfg.ActiveItems + cfg.OldItems
	var name [32]byte
	err := a.regions.BulkInsert(func(add func(*rubisdb.Tuple)) {
		for i := 0; i < cfg.Regions; i++ {
			add(a.regions.Tuple().Int64(int64(i)).Bytes(appendName(name[:0], "region-", i, 2)))
		}
	})
	if err != nil {
		return err
	}
	err = a.categories.BulkInsert(func(add func(*rubisdb.Tuple)) {
		for i := 0; i < cfg.Categories; i++ {
			add(a.categories.Tuple().Int64(int64(i)).Bytes(appendName(name[:0], "category-", i, 2)))
		}
	})
	if err != nil {
		return err
	}
	err = a.users.BulkInsert(func(add func(*rubisdb.Tuple)) {
		for i := 0; i < cfg.Users; i++ {
			add(a.users.Tuple().Int64(int64(i)).Bytes(appendName(name[:0], "user", i, 6)).
				Int64(int64(r.Intn(cfg.Regions))).
				Int64(int64(r.Intn(10))).
				Float64(r.Uniform(0, 1000)))
		}
	})
	if err != nil {
		return err
	}
	a.nextUserID = int64(cfg.Users)

	err = a.items.BulkInsert(func(add func(*rubisdb.Tuple)) {
		for i := 0; i < totalItems; i++ {
			price := r.Uniform(1, 500)
			add(a.items.Tuple().Int64(int64(i)).Bytes(appendName(name[:0], "item-", i, 6)).
				String(itemDescription).
				Int64(int64(r.Intn(cfg.Users))).
				Int64(int64(r.Intn(cfg.Categories))).
				Float64(price).Float64(price).
				Int64(0).
				Int64(int64(1 + r.Intn(5))).
				Float64(price * 1.6).
				Int64(int64(i % 2))) // half "ended", half active (end_date flag)
		}
	})
	if err != nil {
		return err
	}
	a.nextItemID = int64(totalItems)

	a.nextBidID = 0
	err = a.bids.BulkInsert(func(add func(*rubisdb.Tuple)) {
		for i := 0; i < totalItems; i++ {
			n := r.Poisson(float64(cfg.BidsPerItem))
			for b := 0; b < n; b++ {
				add(a.bids.Tuple().Int64(a.nextBidID).
					Int64(int64(r.Intn(cfg.Users))).
					Int64(int64(i)).
					Int64(1).
					Float64(r.Uniform(1, 800)).
					Int64(int64(b)))
				a.nextBidID++
			}
		}
	})
	if err != nil {
		return err
	}

	a.nextCommentID = 0
	err = a.comments.BulkInsert(func(add func(*rubisdb.Tuple)) {
		for u := 0; u < cfg.Users; u++ {
			n := r.Poisson(float64(cfg.CommentsPerUser))
			for c := 0; c < n; c++ {
				add(a.comments.Tuple().Int64(a.nextCommentID).
					Int64(int64(r.Intn(cfg.Users))).
					Int64(int64(u)).
					Int64(int64(r.Intn(totalItems))).
					Int64(int64(r.Intn(10))).
					String(commentText))
				a.nextCommentID++
			}
		}
	})
	if err != nil {
		return err
	}
	a.nextBuyNowID = 0
	// Warm checkpoint so runtime write-back reflects steady state.
	return a.Engine.Checkpoint()
}

// TotalItems reports how many items exist right now.
func (a *App) TotalItems() int64 { return a.nextItemID }

// TotalUsers reports how many users exist right now.
func (a *App) TotalUsers() int64 { return a.nextUserID }
