module Iset = Ssr_util.Iset
module Hashing = Ssr_util.Hashing
module Prng = Ssr_util.Prng
module Iblt = Ssr_sketch.Iblt
module L0 = Ssr_sketch.L0_estimator
module Comm = Ssr_setrecon.Comm

type 'r outcome = { recovered : 'r; stats : Comm.stats }

type error = [ `Decode_failure of Comm.stats ]

let child_id_tag = 0x4A1D

(* 62-bit stand-in for a child set, used only to feed the estimator. *)
let child_id ~seed child =
  Hashing.hash_bytes (Hashing.make ~seed ~tag:child_id_tag) (Iset.canonical_bytes child)

(* Both tables are built one encoding chunk at a time. Direct encodings
   decode straight back to child sets, so Bob needs no index at all — the
   peeled positives/negatives ARE the delta, verified against Alice's
   [Parent.stream_hash] guard. *)
let run ~comm ~seed ~d_hat ~u ~h ~k ~(alice : Parent.stream) ~(bob : Parent.stream) =
  let cfg : Direct.config = { u; h } in
  let prm : Iblt.params =
    {
      cells = Iblt.recommended_cells ~k ~diff_bound:(2 * d_hat);
      k;
      key_len = Direct.key_length cfg;
      seed;
    }
  in
  let table = Iblt.create prm in
  Parent.stream_iter_encoded alice ~encode:(Direct.encode cfg) ~sink:(Iblt.add_all table);
  match
    Parent.xfer_guarded comm ~label:"naive-iblt+hash" prm table
      ~guard:(Parent.stream_hash ~seed alice)
  with
  | None -> Error `Decode_failure
  | Some (table, alice_digest) -> (
  let bob_table = Iblt.create prm in
  Parent.stream_iter_encoded bob ~encode:(Direct.encode cfg) ~sink:(Iblt.add_all bob_table);
  let bob_digest = Parent.stream_hash ~seed bob in
  match Iblt.decode (Iblt.subtract table bob_table) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let decode_all keys =
      List.fold_left
        (fun acc key ->
          match acc with
          | None -> None
          | Some kids -> (
            match Direct.decode cfg key with Some c -> Some (c :: kids) | None -> None))
        (Some []) keys
    in
    match (decode_all positives, decode_all negatives) with
    | Some alice_only, Some bob_only ->
      let delta : Parent.delta = { a_only = alice_only; b_only = bob_only } in
      if Parent.delta_digest ~seed ~base:bob_digest delta = alice_digest then
        Ok { recovered = delta; stats = Comm.stats comm }
      else Error `Decode_failure
    | _ -> Error `Decode_failure))

(* The materialized entry points are views of [run]: stream both parents,
   then apply the recovered delta to Bob. *)
let via_stream comm ~alice ~bob run =
  match run ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob) with
  | Ok o -> Ok { o with recovered = Parent.apply_delta bob o.recovered }
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_known ~seed ~d_hat ~u ~h ?(k = 4) ~alice ~bob () =
  let comm = Comm.create () in
  via_stream comm ~alice ~bob (run ~comm ~seed ~d_hat ~u ~h ~k)

let reconcile_unknown ~seed ~u ~h ?(k = 4) ?estimator_shape ~alice ~bob () =
  let comm = Comm.create () in
  let bob_est = L0.create ~seed ?shape:estimator_shape () in
  List.iter (fun c -> L0.update bob_est L0.S1 (child_id ~seed c)) (Parent.children bob);
  match Comm.xfer comm Comm.B_to_a ~label:"child-estimator" (L0.to_bytes bob_est) with
  | Error `Lost -> Error (`Decode_failure (Comm.stats comm))
  | Ok delivered -> (
    match L0.of_bytes_opt ~seed ?shape:estimator_shape delivered with
    | None -> Error (`Decode_failure (Comm.stats comm))
    | Some bob_est -> (
      let alice_est = L0.create ~seed ?shape:estimator_shape () in
      List.iter (fun c -> L0.update alice_est L0.S2 (child_id ~seed c)) (Parent.children alice);
      let est = L0.query (L0.merge bob_est alice_est) in
      let d_hat = max 2 est in
      via_stream comm ~alice ~bob (run ~comm ~seed:(Prng.derive ~seed ~tag:2) ~d_hat ~u ~h ~k)))
