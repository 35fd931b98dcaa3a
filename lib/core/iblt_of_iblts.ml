module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

let m_retries = Ssr_obs.Metrics.counter "proto.iblt-of-iblts.retries"

type 'r outcome = { recovered : 'r; differing_pairs : int; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

let hash_bits_for s_bound = min 62 ((3 * Bits.ceil_log2 (max 2 s_bound)) + 10)

let config ~seed ~d ~s_bound ~k : Encoding.config =
  {
    child_cells = Iblt.recommended_cells ~k ~diff_bound:d;
    child_k = k;
    hash_bits = hash_bits_for s_bound;
    seed;
  }

(* Both sides build from streams: they hold one encoding chunk plus O(s)
   fingerprints at a time, never the parent itself. The 8-byte guard is
   Alice's [Parent.stream_hash], which Bob checks incrementally from the
   recovered delta. [enc_seed] (default: the run seed) salts the
   child-encoding config only; outer tables stay salted by the per-attempt
   run seed. Resilient pins it to the base seed so escalation rungs
   re-derive identical child-encoding configs and the encoding cache
   carries the work across attempts. *)
let run ~comm ~seed ~enc_seed ~d ~d_hat ~s_bound ~k ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  let enc_seed = Option.value enc_seed ~default:seed in
  let cfg = config ~seed:enc_seed ~d ~s_bound ~k in
  let outer_prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat);
      k;
      key_len = Encoding.key_length cfg;
      seed = Prng.derive ~seed ~tag:0x07E5;
    }
  in
  (* Alice: encode every child (a pure, independent inner IBLT each, so the
     pool builds a chunk concurrently) and ship the outer table as bytes. *)
  let outer = Iblt.create outer_prm in
  Parent.stream_iter_encoded alice ~encode:(Encoding.encode cfg) ~sink:(Iblt.add_all outer);
  match
    Parent.xfer_guarded comm ~label:"outer-iblt+hash" outer_prm outer
      ~guard:(Parent.stream_hash ~seed alice)
  with
  | None -> Error `Decode_failure
  | Some (outer, alice_digest) -> (
  (* Bob: same chunked build, indexed so a differing key maps back to his
     child instead of a linear rescan. *)
  let bob_outer = Iblt.create outer_prm in
  let child_of_key =
    Parent.stream_iter_indexed ~seed bob ~encode:(Encoding.encode cfg) ~sink:(Iblt.add_all bob_outer)
  in
  let bob_digest = Parent.stream_hash ~seed bob in
  match Iblt.decode (Iblt.subtract outer bob_outer) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let db = List.filter_map child_of_key negatives in
    if List.length db <> List.length negatives then Error `Decode_failure
    else begin
      let recover_one alice_key =
        List.find_map (fun bob_child -> Encoding.try_recover cfg ~alice_key ~bob_child) db
      in
      let rec recover_all keys acc =
        match keys with
        | [] -> Some acc
        | key :: rest -> (
          match recover_one key with None -> None | Some child -> recover_all rest (child :: acc))
      in
      match recover_all positives [] with
      | None -> Error `Decode_failure
      | Some da ->
        let delta : Parent.delta = { a_only = da; b_only = db } in
        if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then
          Ok { recovered = delta; differing_pairs = List.length positives; stats = Comm.stats comm }
        else Error `Decode_failure
    end))

(* The materialized entry points are views of [run]: stream both parents,
   then apply the recovered delta to Bob. *)
let via_stream comm ~alice ~bob run =
  match run ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob) with
  | Ok o -> Ok { o with recovered = Parent.apply_delta bob o.recovered }
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_known ~seed ~d ?d_hat ?s_bound ?(k = 4) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let d_hat = match d_hat with Some dh -> dh | None -> min d s_bound in
  let comm = Comm.create () in
  via_stream comm ~alice ~bob (run ~comm ~seed ~enc_seed:None ~d ~d_hat ~s_bound ~k)

let reconcile_unknown ~seed ?s_bound ?(k = 4) ?(max_d = 1 lsl 22) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let comm = Comm.create () in
  let rec attempt d =
    if d > max_d then Error (`Decode_failure (Comm.stats comm))
    else begin
      let d_hat = min d s_bound in
      let seed = Prng.derive ~seed ~tag:(0xD0 + Bits.ceil_log2 (d + 1)) in
      match via_stream comm ~alice ~bob (run ~comm ~seed ~enc_seed:None ~d ~d_hat ~s_bound ~k) with
      | Ok o -> Ok o
      | Error _ ->
        Ssr_obs.Metrics.incr m_retries;
        Comm.send comm Comm.B_to_a ~label:"retry" ~bits:8;
        attempt (2 * d)
    end
  in
  attempt 1
