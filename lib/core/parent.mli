(** Parent sets: the "sets of sets" being reconciled (paper §3).

    A parent set holds s child sets, each a set of at most h elements from a
    universe of size u. The canonical representation (children sorted,
    duplicates removed — a parent is a {e set} of sets) supports the hashing
    and diffing the protocols need, plus the perturbation workloads used by
    tests and benchmarks: Alice's parent is Bob's after a bounded number of
    element additions/deletions applied to child sets. *)

type t

val of_children : Ssr_util.Iset.t list -> t
(** Canonicalize: sort and deduplicate the children. *)

val children : t -> Ssr_util.Iset.t list
(** In canonical order. *)

val cardinal : t -> int
(** Number of (distinct) child sets: s. *)

val total_elements : t -> int
(** Sum of child sizes: n. *)

val max_child_size : t -> int
(** Largest child: h. 0 for the empty parent. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order on canonical forms (used by the set-of-sets-of-sets
    extension to canonicalize collections of parents). *)

val mem : Ssr_util.Iset.t -> t -> bool

val hash : seed:int64 -> t -> int
(** 62-bit hash of the canonical form. The set-of-sets-of-sets extension
    keys whole parents by it; the protocol stacks' whole-object guard
    ("Alice can send Bob a hash of her whole set of sets", §3.2) is the
    streamable {!stream_hash} instead. *)

val symmetric_diff : t -> t -> Ssr_util.Iset.t list * Ssr_util.Iset.t list
(** [(a_only, b_only)]: children of one parent absent from the other. *)

val relaxed_matching_cost : t -> t -> int
(** The difference measure the protocols actually solve (§3.1): the sum,
    over every child set of either party, of its minimum set difference
    with some child of the other party — each differing child is charged
    its distance to its best counterpart. O(s^2 h). Children present on
    both sides cost 0. For the empty other side, a child costs its size. *)

type edit = { child_index : int; element : int; kind : [ `Add | `Del ] }
(** One element edit applied to a child (by canonical index). *)

val perturb :
  Ssr_util.Prng.t -> universe:int -> ?max_child_size:int -> edits:int -> t -> t * edit list
(** Apply [edits] random element additions/deletions across the children
    (the paper's update model). Respects [universe] and, if given,
    [max_child_size]; never creates an edit that cancels a previous one on
    the same child, so the relaxed matching cost is at most (and typically
    exactly) [edits]. Returns the perturbed parent and the edit log. *)

val random :
  Ssr_util.Prng.t -> universe:int -> children:int -> child_size:int -> t
(** A random parent of [children] distinct child sets with approximately
    [child_size] elements each, drawn from [\[0, universe)]. *)

(** {2 Streaming views}

    Million-element workloads cannot afford to materialize a whole parent:
    a {!stream} presents the children as a pure random-access function of
    position (resumable from any index, deterministic at any domain-pool
    size). Every protocol stack's [run] builds its sketches from streams in
    bounded memory; a materialized parent enters through {!stream_of_t}. *)

type stream = {
  length : int;  (** Number of children (s). *)
  child : int -> Ssr_util.Iset.t;
      (** Child at a canonical-order-free position in [\[0, length)]. Must
          be pure (same index, same child — streams are re-walked) and the
          children pairwise distinct. *)
}

val stream_of_t : t -> stream
(** Zero-copy view of a materialized parent. *)

val of_stream : stream -> t
(** Materialize (tests and small inputs only — this is exactly what the
    streaming paths exist to avoid at scale). *)

val stream_to_seq : ?from:int -> stream -> Ssr_util.Iset.t Seq.t
(** The children from position [from] (default 0) on; restarting the
    sequence re-invokes the pure generator, so iteration is resumable. *)

val stream_total_elements : stream -> int
(** Sum of child sizes (n), by one folding pass. *)

val stream_max_child_size : stream -> int
(** Largest child (h), by one folding pass. *)

val stream_iter_encoded :
  ?chunk:int -> ?keep:(Ssr_util.Iset.t -> bool) -> stream ->
  encode:(Ssr_util.Iset.t -> Bytes.t) -> sink:(Bytes.t array -> unit) -> unit
(** Encode the children in chunks of [chunk] (default 4096) under the
    parallel pool and hand each batch to [sink] (typically
    [Iblt.add_all table]); at most one chunk of encodings is live at a
    time, and XOR-linearity makes the result bit-identical to a one-shot
    batch over all children. Children [keep] rejects (default: none) are
    neither encoded nor sunk; without [keep], batch entry [j] of the chunk
    starting at position [base] is child [base + j]. *)

val stream_iter_indexed :
  seed:int64 -> stream -> encode:(Ssr_util.Iset.t -> Bytes.t) ->
  sink:(Bytes.t array -> unit) -> Bytes.t -> Ssr_util.Iset.t option
(** {!stream_iter_encoded} that also records a fingerprint -> positions
    index (O(s) integers) and returns the lookup: the first child, in
    stream order, whose encoding is exactly the given key. Bob uses it to
    map keys peeled out of a difference back to his children without
    rescanning the stream. *)

val stream_hash : seed:int64 -> stream -> int
(** Order-independent whole-parent digest: the sum modulo 2^62 of the
    salted 62-bit {!child_digest} of every child. It is the 8-byte guard of
    every protocol stack (instead of {!hash}, which needs sorted children),
    because Bob can update it incrementally from a recovered delta. *)

val child_digest : seed:int64 -> Ssr_util.Iset.t -> int
(** One child's term of {!stream_hash}. *)

val xfer_guarded :
  Ssr_setrecon.Comm.t -> label:string -> Ssr_sketch.Iblt.params -> Ssr_sketch.Iblt.t ->
  guard:int -> (Ssr_sketch.Iblt.t * int) option
(** Alice -> Bob: one table of public parameters [prm] followed by the
    8-byte [guard] (her {!stream_hash}). Bob gets the parsed table and
    guard, or [None] when the message is lost, truncated or resized. *)

type delta = { a_only : Ssr_util.Iset.t list; b_only : Ssr_util.Iset.t list }
(** What a streaming reconciliation recovers: the children only Alice has
    and the children only Bob has — O(d) state, never the whole parent. *)

val delta_digest : seed:int64 -> base:int -> delta -> int
(** [delta_digest ~seed ~base:(stream_hash bob) delta]: Bob's digest minus
    the digests of [b_only] plus those of [a_only], modulo 2^62. It equals
    Alice's {!stream_hash} when the delta is correct; a delta that lists a
    child on the wrong side or twice changes the sum, so it matches only
    through a 62-bit digest collision. *)

val apply_delta : t -> delta -> t
(** Apply a recovered delta to (materialized) Bob: drop [b_only], add
    [a_only]. The stacks' [reconcile_known]/[reconcile_unknown] wrappers
    use it to turn [run]'s delta into Alice's parent. *)

val pp : Format.formatter -> t -> unit
