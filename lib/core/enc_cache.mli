(** Process-global child-encoding cache.

    The nested protocols re-encode the same child sets many times: once per
    cascade level sweep, once per Resilient escalation rung, once per
    pairing attempt inside the recovery searches — and each side of an
    in-process run encodes a nearly identical child population. Encodings
    are pure functions of (sketch geometry, seed, child), so this module
    memoizes them under an {e exact structural} key: a hit returns exactly
    the bytes the encoder would have produced, making cache hits
    byte-transparent by construction (differentially tested against the
    disabled cache, at any domain-pool size).

    Returned buffers are shared: callers must treat them as immutable, which
    every protocol build path already does (outer-table inserts, equality
    probes and total parsers only read their key slabs).

    Thread-safe under OCaml 5 domains; values never depend on cache state,
    so parallel builds stay deterministic. *)

val find_or_add :
  kind:int ->
  cells:int ->
  k:int ->
  bits:int ->
  seed:int64 ->
  child:Ssr_util.Iset.t ->
  (unit -> Bytes.t) ->
  Bytes.t
(** [find_or_add ~kind ... compute] returns the cached bytes for the exact
    key, or runs [compute] (outside the lock) and caches its result.
    [kind] discriminates encoder families sharing the integer fields
    (0 = child IBLT encodings, 1 = direct encodings). With the cache
    disabled this is just [compute ()]. *)

val deferring : (unit -> 'a) -> 'a
(** [deferring f] runs [f] (typically one parallel encoding batch) with
    admissions held back: lookups see only the entries present before [f],
    and when it ends its misses are admitted all together if they fit the
    budget, or not at all. Which entries the cache holds — and so every
    later hit and work counter — is then the same at any domain-pool size,
    even when the budget runs out mid-batch. Enter it from one domain at a
    time. *)

val set_enabled : bool -> unit
(** Toggle the cache (default: enabled). Disabling does not drop existing
    entries; combine with {!clear} for differential cached-vs-uncached
    runs. *)

val is_enabled : unit -> bool

val set_capacity_bytes : int -> unit
(** Byte budget for the heap the cache keeps alive (default 256 MiB). Each
    entry is charged its value, its key record, the child set the key
    retains and its hash-table bucket. When full, further inserts are
    skipped — lookups still hit what fits, and correctness is
    unaffected. *)

val clear : unit -> unit
(** Drop every entry and reset the statistics. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  bytes : int;  (** Heap bytes charged against the budget. *)
}

val stats : unit -> stats
(** Hit/miss counts are informational: under a parallel pool two domains
    racing on the same fresh key both count a miss. *)
