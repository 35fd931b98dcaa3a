(** Unified front end over the four set-of-sets reconciliation protocols.

    Benchmarks, examples and applications pick a protocol by name and get a
    uniform result type; see the individual modules for the per-protocol
    parameters and guarantees. *)

type kind =
  | Naive  (** §3.1, Thm 3.3/3.4: child sets as monolithic wide keys. *)
  | Iblt_of_iblts  (** §3.2 Alg 1, Thm 3.5 / Cor 3.6. *)
  | Cascade  (** §3.2 Alg 2, Thm 3.7 / Cor 3.8. *)
  | Multiround  (** §3.3, Thm 3.9 / 3.10. *)

val all : kind list
val name : kind -> string

type 'r outcome = {
  recovered : 'r;
      (** What Bob learned: the O(d) delta from {!run_known}, Alice's parent
          from the other entry points. *)
  stats : Ssr_setrecon.Comm.stats;
}

type error = [ `Decode_failure of Ssr_setrecon.Comm.stats ]

val run_known :
  kind -> comm:Ssr_setrecon.Comm.t -> seed:int64 -> enc_seed:int64 option -> d:int -> u:int -> h:int ->
  alice:Parent.stream -> bob:Parent.stream ->
  (Parent.delta outcome, [ `Decode_failure ]) result
(** One known-d attempt of the chosen stack's [run], with each protocol's
    default tuning, threaded through a caller-supplied recorder: sketches
    are built from {!Parent.stream} views in bounded memory, and the
    result is the delta Bob learned, verified against Alice's
    {!Parent.stream_hash}. The transport-aware driver (lib/transport's
    Resilient) uses this to run several attempts over one channel
    transcript; the outcome's stats are cumulative for [comm].
    [enc_seed] (default: [seed]) pins the child-encoding salt across
    attempts for the protocols with seeded child encodings (Iblt_of_iblts,
    Cascade), letting the {!Enc_cache} carry encoding work between
    escalation rungs; the other protocols ignore it (Naive's direct
    encodings are seedless, Multiround's per-child tables are
    position-keyed). *)

val reconcile_known :
  kind -> seed:int64 -> d:int -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (Parent.t outcome, error) result
(** Run the chosen protocol with a known bound [d] on the total number of
    element changes ([u], [h] size the direct encodings where needed;
    the naive protocol derives its d_hat as [min d s]): {!run_known} on
    {!Parent.stream_of_t} views, with the delta applied to Bob. *)

val reconcile_unknown :
  kind -> seed:int64 -> u:int -> h:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (Parent.t outcome, error) result
(** Run the unknown-d variant (estimator round or repeated doubling,
    whichever the protocol prescribes). *)

val reconcile_amplified :
  kind -> seed:int64 -> d:int -> u:int -> h:int -> replicas:int ->
  alice:Parent.t -> bob:Parent.t -> unit -> (Parent.t outcome, error) result
(** The paper's replication amplification (§3.2): run [replicas] independent
    instances in parallel (independent public coins) and let Bob output the
    first recovery that verifies against Alice's whole-collection hash. The
    failure probability drops exponentially in [replicas]; the transcript
    charges every replica's traffic, as a parallel execution must. *)

type cost_report = {
  protocol : string;  (** {!name} of the protocol that ran. *)
  stats : Ssr_setrecon.Comm.stats;
  per_round : (int * int * int) list;
      (** {!Ssr_setrecon.Comm.per_round_bits} of [stats]: per-round payload
          bits in each direction. *)
  metrics : Ssr_obs.Metrics.snapshot;
      (** Delta of the process-wide metrics over the run: IBLT insert/peel
          activity, estimator queries, transport counters — whatever the run
          touched. *)
}
(** Transcript-level cost accounting for one reconciliation run. *)

val with_report :
  kind -> (unit -> ('r outcome, error) result) ->
  ('r outcome * cost_report, error * cost_report) result
(** [with_report kind (reconcile_known kind ~seed ~d ~u ~h ~alice ~bob)]:
    the run plus its {!cost_report}; failures carry a report too (a failed
    run still spent its communication). *)
