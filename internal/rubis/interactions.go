package rubis

import (
	"fmt"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// Interaction is one of the 26 RUBiS request types, as a dense kind:
// the constants below run 0..NumInteractions-1, so every per-kind
// table is an array indexed by the kind itself.
type Interaction uint8

// The 26 RUBiS interactions (RUBiS 1.4.x state set).
const (
	Home Interaction = iota
	Register
	RegisterUser
	Browse
	BrowseCategories
	SearchItemsInCategory
	BrowseRegions
	BrowseCategoriesInRegion
	SearchItemsInRegion
	ViewItem
	ViewUserInfo
	ViewBidHistory
	BuyNowAuth
	BuyNow
	StoreBuyNow
	PutBidAuth
	PutBid
	StoreBid
	PutCommentAuth
	PutComment
	StoreComment
	Sell
	SelectCategoryToSellItem
	SellItemForm
	RegisterItem
	AboutMe

	// NumInteractions is the number of distinct RUBiS interaction kinds.
	NumInteractions = iota
)

var interactionNames = [NumInteractions]string{
	"Home", "Register", "RegisterUser", "Browse", "BrowseCategories",
	"SearchItemsInCategory", "BrowseRegions", "BrowseCategoriesInRegion",
	"SearchItemsInRegion", "ViewItem", "ViewUserInfo", "ViewBidHistory",
	"BuyNowAuth", "BuyNow", "StoreBuyNow", "PutBidAuth", "PutBid", "StoreBid",
	"PutCommentAuth", "PutComment", "StoreComment", "Sell",
	"SelectCategoryToSellItem", "SellItemForm", "RegisterItem", "AboutMe",
}

// String returns the RUBiS name of the interaction.
func (i Interaction) String() string {
	if i >= NumInteractions {
		return fmt.Sprintf("Interaction(%d)", uint8(i))
	}
	return interactionNames[i]
}

// AllInteractions lists every interaction type in kind order.
func AllInteractions() []Interaction {
	out := make([]Interaction, NumInteractions)
	for i := range out {
		out[i] = Interaction(i)
	}
	return out
}

// CostParams converts logical interaction work into web-tier demand.
type CostParams struct {
	// WebBaseCycles is per-request PHP dispatch/session overhead.
	WebBaseCycles float64
	// WebCyclesPerHTMLByte is templating cost per generated byte.
	WebCyclesPerHTMLByte float64
	// WebCyclesPerDBByte is unmarshalling cost per DB reply byte.
	WebCyclesPerDBByte float64
	// RequestBytes is the mean client request size (URL + headers).
	RequestBytes float64
	// HTMLNoiseCV randomizes response sizes (ads, session blocks).
	HTMLNoiseCV float64
}

// DefaultCostParams returns the calibrated web/app tier cost model.
func DefaultCostParams() CostParams {
	return CostParams{
		WebBaseCycles:        0.55e6,
		WebCyclesPerHTMLByte: 250,
		WebCyclesPerDBByte:   30,
		RequestBytes:         460,
		HTMLNoiseCV:          0.18,
	}
}

// QueryCost is the cost of one web→DB call.
type QueryCost struct {
	// Receipt is the storage engine's metered work.
	Receipt rubisdb.Receipt
	// RequestBytes is the SQL text + protocol sent to the DB.
	RequestBytes float64
	// ReplyBytes is the projected result set returned to the app tier
	// (selected columns only, not full tuples).
	ReplyBytes float64
}

// Result is the full cost breakdown of one executed interaction.
type Result struct {
	Interaction   Interaction
	RequestBytes  float64
	ResponseBytes float64
	WebCycles     float64
	Queries       []QueryCost
	IsWrite       bool

	// Cacheable marks the DB work as servable from a fragment cache;
	// CacheKey is then the fragment's identity (see cache.go).
	Cacheable bool
	CacheKey  CacheRef
	// Inval[:NInval] lists the fragments this write invalidates.
	Inval  [maxInval]CacheRef
	NInval uint8
}

// DBTransferBytes sums request+reply bytes across all queries.
func (r *Result) DBTransferBytes() (toDB, fromDB float64) {
	for _, q := range r.Queries {
		toDB += q.RequestBytes
		fromDB += q.ReplyBytes
	}
	return toDB, fromDB
}

// TotalDBCycles sums the DB CPU demand across all queries.
func (r *Result) TotalDBCycles() float64 {
	total := 0.0
	for _, q := range r.Queries {
		total += q.Receipt.CPUCycles
	}
	return total
}

// Session carries the per-client browsing focus between interactions.
type Session struct {
	UserID     int64
	ItemID     int64
	CategoryID int64
	RegionID   int64
	ToUserID   int64
}

// htmlSizes is the base generated-page size per interaction, before
// per-row rendering. Calibrated against RUBiS PHP page weights.
var htmlSizes = [NumInteractions]float64{
	Home: 2900, Register: 3600, RegisterUser: 2500,
	Browse: 3100, BrowseCategories: 4100, SearchItemsInCategory: 5200,
	BrowseRegions: 3900, BrowseCategoriesInRegion: 4100,
	SearchItemsInRegion: 4800, ViewItem: 8400, ViewUserInfo: 4500,
	ViewBidHistory: 5500, BuyNowAuth: 3200, BuyNow: 7400,
	StoreBuyNow: 2500, PutBidAuth: 3200, PutBid: 7700, StoreBid: 2500,
	PutCommentAuth: 3200, PutComment: 5800, StoreComment: 2500,
	Sell: 4000, SelectCategoryToSellItem: 4100, SellItemForm: 4800,
	RegisterItem: 2900, AboutMe: 6800,
}

// Projected per-row reply widths (bytes) for the column sets each page
// actually selects. The MySQL wire format for these pages is compact:
// numeric ids plus short projected strings.
const (
	rowItemList  = 22 // id, price, end flag
	rowItemFull  = 180
	rowUser      = 32
	rowBid       = 26
	rowComment   = 60
	rowCategory  = 20
	rowRegion    = 20
	perRowHTML   = 430 // HTML rendered per listed row
	queryReqBase = 30  // SQL text + protocol per query
	searchLimit  = 20  // items per result page
)

// record appends the cost of the query that began at meter snapshot
// snap.
func (a *App) record(res *Result, snap rubisdb.Meter, replyBytes float64) {
	res.Queries = append(res.Queries, QueryCost{
		Receipt:      a.Engine.ReceiptSince(snap),
		RequestBytes: queryReqBase,
		ReplyBytes:   replyBytes,
	})
}

// collect returns int64 column out of up to limit tuples of t whose
// indexed column col equals key, in index order. The slice is the App's
// scratch and is overwritten by the next collect.
func (a *App) collect(t *rubisdb.Table, col int, key int64, limit, out int) ([]int64, error) {
	ids := a.ids[:0]
	err := t.Scan(col, key, key, limit, func(tuple []byte) bool {
		ids = append(ids, t.Schema.Int64At(tuple, out))
		return true
	})
	a.ids = ids
	return ids, err
}

// count counts up to limit tuples of t whose indexed column col equals
// key, fetching each one as a listing page does.
func count(t *rubisdb.Table, col int, key int64, limit int) (int, error) {
	n := 0
	err := t.Scan(col, key, key, limit, func([]byte) bool {
		n++
		return true
	})
	return n, err
}

// Execute runs one interaction against the database and returns its cost
// breakdown. The session focus fields are updated so that subsequent
// interactions chain plausibly (a ViewItem follows a search, a StoreBid
// follows a PutBid on the same item).
func (a *App) Execute(kind Interaction, sess *Session, r *rng.Stream, params CostParams) (*Result, error) {
	res := new(Result)
	if err := a.ExecuteInto(res, kind, sess, r, params); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecuteInto is Execute writing into a caller-owned Result, resetting
// it first and reusing its Queries backing array. The closed-loop driver
// keeps one Result per client and recycles it every interaction, so the
// steady-state request path does not allocate a cost breakdown per page.
func (a *App) ExecuteInto(res *Result, kind Interaction, sess *Session, r *rng.Stream, params CostParams) error {
	*res = Result{Interaction: kind, Queries: res.Queries[:0]}
	rowsListed := 0.0

	c := &a.cols
	switch kind {
	case Home, Register, Browse, BuyNowAuth, PutBidAuth, PutCommentAuth, Sell, SellItemForm:
		// Static pages: no DB work.

	case BrowseCategories, BrowseCategoriesInRegion, SelectCategoryToSellItem:
		// The category menu is rendered from the app tier's cached copy
		// (the menu tables change only on admin actions), so no DB round
		// trip happens — which is part of why the paper's MySQL network
		// trace is two orders of magnitude below the web tier's.
		rowsListed = float64(a.Config.Categories)
		sess.CategoryID = int64(r.Categorical(a.catWeights))

	case BrowseRegions:
		rowsListed = float64(a.Config.Regions) * 0.5
		sess.RegionID = int64(r.Categorical(a.regWeights))

	case SearchItemsInCategory:
		snap := a.Engine.Snapshot()
		items, err := a.collect(a.items, c.itemCategory, sess.CategoryID, searchLimit, c.itemID)
		if err != nil {
			return err
		}
		a.record(res, snap, float64(len(items))*rowItemList)
		rowsListed = float64(len(items))
		if len(items) > 0 {
			sess.ItemID = items[r.Intn(len(items))]
		}

	case SearchItemsInRegion:
		// One join query: sellers in the region and a few items each.
		snap := a.Engine.Snapshot()
		sellers, err := a.collect(a.users, c.userRegion, sess.RegionID, 8, c.userID)
		if err != nil {
			return err
		}
		total := 0
		for _, seller := range sellers {
			n := 0
			err := a.items.Scan(c.itemSeller, seller, seller, 3, func(tuple []byte) bool {
				if n == 0 {
					sess.ItemID = a.items.Schema.Int64At(tuple, c.itemID)
				}
				n++
				return true
			})
			if err != nil {
				return err
			}
			total += n
		}
		a.record(res, snap, float64(total)*rowItemList)
		rowsListed = float64(total)

	case ViewItem:
		snap := a.Engine.Snapshot()
		var seller int64
		found, err := a.items.Get(sess.ItemID, func(tuple []byte) {
			seller = a.items.Schema.Int64At(tuple, c.itemSeller)
		})
		if err != nil {
			return err
		}
		a.record(res, snap, rowItemFull)
		if found {
			sess.ToUserID = seller
			snap = a.Engine.Snapshot()
			if _, err := a.users.Get(seller, nil); err != nil {
				return err
			}
			a.record(res, snap, rowUser)
		}
		snap = a.Engine.Snapshot()
		if _, err := a.bids.Count(c.bidItem, sess.ItemID, sess.ItemID); err != nil {
			return err
		}
		a.record(res, snap, 16)
		rowsListed = 2

	case ViewUserInfo:
		snap := a.Engine.Snapshot()
		if _, err := a.users.Get(sess.ToUserID, nil); err != nil {
			return err
		}
		a.record(res, snap, rowUser)
		snap = a.Engine.Snapshot()
		n, err := count(a.comments, c.commentToUser, sess.ToUserID, 10)
		if err != nil {
			return err
		}
		a.record(res, snap, float64(n)*rowComment)
		rowsListed = float64(n)

	case ViewBidHistory:
		snap := a.Engine.Snapshot()
		if _, err := a.items.Get(sess.ItemID, nil); err != nil {
			return err
		}
		a.record(res, snap, rowItemList)
		// One join query: bids for the item with their bidders' names.
		snap = a.Engine.Snapshot()
		bidders, err := a.collect(a.bids, c.bidItem, sess.ItemID, 8, c.bidUser)
		if err != nil {
			return err
		}
		for _, u := range bidders {
			if _, err := a.users.Get(u, nil); err != nil {
				return err
			}
		}
		a.record(res, snap, float64(len(bidders))*(rowBid+rowUser))
		rowsListed = float64(len(bidders))

	case BuyNow, PutBid:
		snap := a.Engine.Snapshot()
		if _, err := a.items.Get(sess.ItemID, nil); err != nil {
			return err
		}
		a.record(res, snap, rowItemFull)
		if kind == PutBid {
			snap = a.Engine.Snapshot()
			if _, err := a.bids.Count(c.bidItem, sess.ItemID, sess.ItemID); err != nil {
				return err
			}
			a.record(res, snap, 16)
		}
		rowsListed = 1

	case PutComment:
		snap := a.Engine.Snapshot()
		if _, err := a.users.Get(sess.ToUserID, nil); err != nil {
			return err
		}
		a.record(res, snap, rowUser)
		snap = a.Engine.Snapshot()
		if _, err := a.items.Get(sess.ItemID, nil); err != nil {
			return err
		}
		a.record(res, snap, rowItemList)
		rowsListed = 1

	case RegisterUser:
		res.IsWrite = true
		id := a.nextUserID
		a.nextUserID++
		var name [32]byte
		row := a.users.Tuple().Int64(id).Bytes(appendName(name[:0], "user", int(id), 6)).
			Int64(int64(r.Intn(a.Config.Regions))).Int64(0).Float64(0)
		snap := a.Engine.Snapshot()
		if _, err := a.users.Insert(row); err != nil {
			return err
		}
		a.record(res, snap, 24)

	case RegisterItem:
		res.IsWrite = true
		id := a.nextItemID
		a.nextItemID++
		price := r.Uniform(1, 500)
		var name [32]byte
		row := a.items.Tuple().Int64(id).Bytes(appendName(name[:0], "item-", int(id), 6)).
			String(itemDescription).
			Int64(sess.UserID).Int64(sess.CategoryID).
			Float64(price).Float64(price).
			Int64(0).Int64(1).Float64(price * 1.6).Int64(0)
		snap := a.Engine.Snapshot()
		if _, err := a.items.Insert(row); err != nil {
			return err
		}
		a.record(res, snap, 24)
		sess.ItemID = id

	case StoreBid:
		res.IsWrite = true
		id := a.nextBidID
		a.nextBidID++
		amount := r.Uniform(1, 900)
		row := a.bids.Tuple().Int64(id).Int64(sess.UserID).Int64(sess.ItemID).
			Int64(1).Float64(amount).Int64(0)
		snap := a.Engine.Snapshot()
		if _, err := a.bids.Insert(row); err != nil {
			return err
		}
		a.record(res, snap, 24)
		snap = a.Engine.Snapshot()
		var nbBids int64
		found, err := a.items.Get(sess.ItemID, func(tuple []byte) {
			nbBids = a.items.Schema.Int64At(tuple, c.itemNbBids)
		})
		if err != nil {
			return err
		}
		if found {
			if err := a.items.UpdateNumeric(sess.ItemID,
				rubisdb.SetFloat64(c.itemMaxBid, amount),
				rubisdb.SetInt64(c.itemNbBids, nbBids+1),
			); err != nil {
				return err
			}
		}
		a.record(res, snap, 16)

	case StoreBuyNow:
		res.IsWrite = true
		id := a.nextBuyNowID
		a.nextBuyNowID++
		row := a.buyNow.Tuple().Int64(id).Int64(sess.UserID).Int64(sess.ItemID).Int64(1).Int64(0)
		snap := a.Engine.Snapshot()
		if _, err := a.buyNow.Insert(row); err != nil {
			return err
		}
		a.record(res, snap, 24)

	case StoreComment:
		res.IsWrite = true
		id := a.nextCommentID
		a.nextCommentID++
		row := a.comments.Tuple().Int64(id).Int64(sess.UserID).Int64(sess.ToUserID).Int64(sess.ItemID).
			Int64(int64(r.Intn(10))).String(commentText)
		snap := a.Engine.Snapshot()
		if _, err := a.comments.Insert(row); err != nil {
			return err
		}
		a.record(res, snap, 24)

	case AboutMe:
		snap := a.Engine.Snapshot()
		if _, err := a.users.Get(sess.UserID, nil); err != nil {
			return err
		}
		a.record(res, snap, rowUser)
		snap = a.Engine.Snapshot()
		n, err := count(a.items, c.itemSeller, sess.UserID, 5)
		if err != nil {
			return err
		}
		a.record(res, snap, float64(n)*rowItemList)
		snap = a.Engine.Snapshot()
		nb, err := count(a.bids, c.bidUser, sess.UserID, 10)
		if err != nil {
			return err
		}
		a.record(res, snap, float64(nb)*rowBid)
		snap = a.Engine.Snapshot()
		nc, err := count(a.comments, c.commentToUser, sess.UserID, 5)
		if err != nil {
			return err
		}
		a.record(res, snap, float64(nc)*rowComment)
		rowsListed = float64(n + nb + nc)

	default:
		return fmt.Errorf("rubis: unknown interaction %q", kind)
	}

	// Web-tier costs from the interaction's page weight plus rendering.
	html := htmlSizes[kind] + rowsListed*perRowHTML
	html = r.LogNormalMean(html, params.HTMLNoiseCV)
	res.ResponseBytes = html
	res.RequestBytes = r.LogNormalMean(params.RequestBytes, 0.1)
	_, fromDB := res.DBTransferBytes()
	res.WebCycles = params.WebBaseCycles +
		params.WebCyclesPerHTMLByte*html +
		params.WebCyclesPerDBByte*fromDB
	fillCache(res, sess)
	return nil
}
