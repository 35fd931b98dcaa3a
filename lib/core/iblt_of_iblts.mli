(** The IBLT-of-IBLTs protocol (paper §3.2, Algorithm 1, Theorem 3.5, and
    the repeated-doubling extension of Corollary 3.6).

    Every child set is compressed into an O(d)-cell child IBLT plus an
    O(log s)-bit hash; the fixed-width (table, hash) encodings are then
    themselves reconciled through an outer IBLT. Bob peels the outer table
    to learn which encodings differ, pairs each of Alice's differing child
    IBLTs with one of his own by attempting subtract-and-peel decodes, and
    patches his children with the recovered element differences.
    Communication O(d_hat d log u + d_hat log s), time O(n + d_hat^2 d). *)

type 'r outcome = {
  recovered : 'r;  (** What Bob learned: the delta from {!run}, Alice's parent from the wrappers. *)
  differing_pairs : int;  (** How many of Alice's children Bob had to repair. *)
  stats : Ssr_setrecon.Comm.stats;
}

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val reconcile_known :
  seed:int64 -> d:int -> ?d_hat:int -> ?s_bound:int -> ?k:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (Parent.t outcome, error) result
(** Theorem 3.5: one round. [d] bounds the total number of element changes;
    [d_hat] the number of differing children per side (default
    [min d s_bound]); [s_bound] sizes the child hashes (default: Bob's
    child count, which both parties know up to O(d)). *)

val reconcile_unknown :
  seed:int64 -> ?s_bound:int -> ?k:int -> ?max_d:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (Parent.t outcome, error) result
(** Corollary 3.6: repeated doubling d = 1, 2, 4, ... until the transfer
    verifies; O(log d) rounds, asymptotically the same communication. *)

val run :
  comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option -> d:int -> d_hat:int ->
  s_bound:int -> k:int ->
  alice:Parent.stream -> bob:Parent.stream ->
  (Parent.delta outcome, [ `Decode_failure ]) result
(** One attempt threaded through a caller-supplied recorder (for retry
    drivers and transports); the outcome's stats are cumulative for [comm].
    Sketches are built in bounded memory (one encoding chunk at a time,
    plus O(s) child fingerprints) and the result is the O(d) delta,
    verified against Alice's {!Parent.stream_hash}. The wrappers above run
    it on {!Parent.stream_of_t} views and apply the delta.
    [enc_seed] (default: [seed]) salts only the child-encoding config, so a
    retry driver that pins it across attempts re-derives identical child
    encodings and the {!Enc_cache} carries that work between rungs; outer
    tables stay salted by the per-attempt [seed]. *)
