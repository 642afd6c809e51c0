package rubis

// Per-interaction cacheability: which RUBiS pages can be served from a
// memcache-like fragment cache, what entity id keys each fragment, and
// which fragments a write invalidates. The declarations live here — next
// to the interaction definitions — so the cache tier (internal/tiers,
// internal/cachetier) stays ignorant of RUBiS semantics: ExecuteInto
// stamps every Result with its dense kind index, its cache key, and its
// invalidation set, and the serving path consumes them as plain values.
//
// The cacheable set is the read pages whose DB work is a pure function
// of one session focus entity. Transactional read pages (BuyNow, PutBid,
// PutComment) are deliberately not cacheable: they precede writes and a
// stale bid count there would corrupt the write they set up. Static and
// app-tier-cached menu pages have no DB work to cache.

// NumInteractions is the number of distinct RUBiS interaction kinds.
const NumInteractions = 26

// Index returns the kind's dense index in AllInteractions() order, or
// -1 for an unknown kind. It is a switch rather than a map lookup
// because the request path asks once per transition and once per
// executed interaction.
func (i Interaction) Index() int {
	switch i {
	case Home:
		return 0
	case Register:
		return 1
	case RegisterUser:
		return 2
	case Browse:
		return 3
	case BrowseCategories:
		return 4
	case SearchItemsInCategory:
		return 5
	case BrowseRegions:
		return 6
	case BrowseCategoriesInRegion:
		return 7
	case SearchItemsInRegion:
		return 8
	case ViewItem:
		return 9
	case ViewUserInfo:
		return 10
	case ViewBidHistory:
		return 11
	case BuyNowAuth:
		return 12
	case BuyNow:
		return 13
	case StoreBuyNow:
		return 14
	case PutBidAuth:
		return 15
	case PutBid:
		return 16
	case StoreBid:
		return 17
	case PutCommentAuth:
		return 18
	case PutComment:
		return 19
	case StoreComment:
		return 20
	case Sell:
		return 21
	case SelectCategoryToSellItem:
		return 22
	case SellItemForm:
		return 23
	case RegisterItem:
		return 24
	case AboutMe:
		return 25
	}
	return -1
}

// InteractionAt is the inverse of Index; it panics on an out-of-range
// index (a programming error, not an input condition).
func InteractionAt(idx int) Interaction {
	return AllInteractions()[idx]
}

// CacheRef identifies one cacheable page fragment: the interaction kind
// (by dense index) plus the entity id the fragment is keyed on.
type CacheRef struct {
	Kind uint8
	ID   int64
}

// cacheEntity selects which Session focus field keys a fragment.
type cacheEntity uint8

const (
	entNone cacheEntity = iota
	entItem
	entUser
	entToUser
	entCategory
	entRegion
)

func (e cacheEntity) id(sess *Session) int64 {
	switch e {
	case entItem:
		return sess.ItemID
	case entUser:
		return sess.UserID
	case entToUser:
		return sess.ToUserID
	case entCategory:
		return sess.CategoryID
	case entRegion:
		return sess.RegionID
	}
	return 0
}

// cacheEntityByKind declares the cacheable read pages and their key
// entity. Every entry is a page whose DB work depends only on that
// entity; none of them mutates its own key field during execution, so
// the key is stable whether read before or after the interaction runs.
var cacheEntityByKind = func() [NumInteractions]cacheEntity {
	var t [NumInteractions]cacheEntity
	for kind, ent := range map[Interaction]cacheEntity{
		SearchItemsInCategory: entCategory,
		SearchItemsInRegion:   entRegion,
		ViewItem:              entItem,
		ViewUserInfo:          entToUser,
		ViewBidHistory:        entItem,
		AboutMe:               entUser,
	} {
		t[kind.Index()] = ent
	}
	return t
}()

// invalEntry is one fragment a write invalidates: the cached kind and
// the session field carrying the entity id at write time.
type invalEntry struct {
	kind Interaction
	ent  cacheEntity
}

// invalByKind declares the write-side invalidation sets. A write
// invalidates every cached fragment its rows feed: a new bid changes
// the item page, its bid history, and the bidder's AboutMe; a new item
// changes its category's search page and the seller's AboutMe; a new
// comment changes the target user's profile.
var invalByKind = func() [NumInteractions][maxInval]CacheRef {
	decl := map[Interaction][]invalEntry{
		StoreBid:     {{ViewItem, entItem}, {ViewBidHistory, entItem}, {AboutMe, entUser}},
		StoreBuyNow:  {{ViewItem, entItem}},
		StoreComment: {{ViewUserInfo, entToUser}, {AboutMe, entToUser}},
		RegisterItem: {{SearchItemsInCategory, entCategory}, {AboutMe, entUser}},
	}
	var t [NumInteractions][maxInval]CacheRef
	for kind, list := range decl {
		for i, e := range list {
			// The entity selector rides in the ID slot until fillCache
			// resolves it against the live session.
			t[kind.Index()][i] = CacheRef{Kind: uint8(e.kind.Index()) + 1, ID: int64(e.ent)}
		}
	}
	return t
}()

// maxInval bounds the invalidation fan-out of one write.
const maxInval = 3

// fillCache stamps the executed interaction's cache attribution into
// res: the dense kind index, the fragment key when the page is
// cacheable, and the invalidation set when it is a write. Pure — no RNG
// draws, no session mutation — so enabling a cache tier downstream
// never perturbs the workload's random sequence.
func fillCache(res *Result, sess *Session) {
	idx := res.Interaction.Index()
	if idx < 0 {
		return
	}
	res.Kind = uint8(idx)
	if ent := cacheEntityByKind[idx]; ent != entNone {
		res.Cacheable = true
		res.CacheKey = CacheRef{Kind: uint8(idx), ID: ent.id(sess)}
	}
	if res.IsWrite {
		for _, iv := range invalByKind[idx] {
			if iv.Kind == 0 {
				break
			}
			res.Inval[res.NInval] = CacheRef{Kind: iv.Kind - 1, ID: cacheEntity(iv.ID).id(sess)}
			res.NInval++
		}
	}
}

// Cacheable reports whether kind's DB work is declared cacheable.
func Cacheable(kind Interaction) bool {
	idx := kind.Index()
	return idx >= 0 && cacheEntityByKind[idx] != entNone
}

// CacheableInteractions lists the declared cacheable kinds in
// AllInteractions() order.
func CacheableInteractions() []Interaction {
	var out []Interaction
	for i, k := range AllInteractions() {
		if cacheEntityByKind[i] != entNone {
			out = append(out, k)
		}
	}
	return out
}
