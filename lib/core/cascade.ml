module Iset = Ssr_util.Iset
module Bits = Ssr_util.Bits
module Prng = Ssr_util.Prng
module Buf = Ssr_util.Buf
module Codec = Ssr_util.Codec
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

let m_retries = Ssr_obs.Metrics.counter "proto.cascade.retries"

type 'r outcome = {
  recovered : 'r;
  levels : int;
  used_star : bool;
  recovered_per_level : int array;
  stats : Comm.stats;
}

type error = [ `Decode_failure of Comm.stats ]

let num_levels ~d ~h = max 1 (Bits.ceil_log2 (max 2 (min d h)))

(* Lean child tables: level-i failures are recovered at level i+1, so we do
   not pay the standalone-reliability slack of Algorithm 1 here. *)
let child_cells ~k i = max k ((2 * (1 lsl i)) + 2)

let level_config ~seed ~s_bound ~t ~k i : Encoding.config =
  {
    child_cells = child_cells ~k i;
    child_k = k;
    hash_bits = min 62 ((3 * Bits.ceil_log2 (max 2 (s_bound * (t + 1)))) + 10);
    seed = Prng.derive ~seed ~tag:(0xCA5C + i);
  }

let outer_params ~seed ~k ~key_len ~diff_bound i : Iblt.params =
  {
    cells = Iblt.recommended_cells ~k ~diff_bound;
    k;
    key_len;
    seed = Prng.derive ~seed ~tag:(0x07E0 + i);
  }

(* Both sides build from streams, one chunked pass per table, so at most
   one encoding chunk is live at a time. Bob builds only his level-1 table
   (indexed, so negatives map back to his children) before the level-1
   decode; each later level and T* is one walk that deletes his children
   outside D_B plus the children recovered so far. The 8-byte guard is
   Alice's [Parent.stream_hash]; Bob checks it from the recovered delta.
   [enc_seed] (default: the run seed) salts the per-level child-encoding
   configs only; outer and star tables stay salted by the per-attempt run
   seed. Resilient pins it so escalation rungs share cached encodings. *)
let run ~comm ~seed ~enc_seed ~d ~d_hat ~s_bound ~u ~h ~k ~(alice : Parent.stream)
    ~(bob : Parent.stream) =
  let enc_seed = Option.value enc_seed ~default:seed in
  let t = num_levels ~d ~h in
  let use_star = h <= d in
  let cfgs = Array.init (t + 1) (fun i -> level_config ~seed:enc_seed ~s_bound ~t ~k i) in
  (* Outer difference bounds: 2*d_hat encodings at level 1; geometrically
     fewer unrecovered children at the higher levels (the paper's
     (9/4) d/2^i bound). *)
  let outer_bound i = if i = 1 then 2 * d_hat else max 4 (min d_hat ((3 * d) lsr i)) in
  let outers =
    Array.init (t + 1) (fun i ->
        if i = 0 then None
        else
          Some
            (outer_params ~seed ~k ~key_len:(Encoding.key_length cfgs.(i)) ~diff_bound:(outer_bound i) i))
  in
  let direct_cfg : Direct.config = { u; h } in
  let star_prm =
    if use_star then
      Some
        (outer_params ~seed ~k ~key_len:(Direct.key_length direct_cfg)
           ~diff_bound:(max 4 (Bits.ceil_div (3 * d) (max 1 h)))
           0x55)
    else None
  in
  let build prm ~encode =
    let table = Iblt.create prm in
    Parent.stream_iter_encoded alice ~encode ~sink:(Iblt.add_all table);
    table
  in
  (* ---- Alice: build and send every level table (one message). ---- *)
  let alice_tables =
    Array.init (t + 1) (fun i ->
        Option.map (build ~encode:(Encoding.encode cfgs.(i))) outers.(i))
  in
  let alice_star = Option.map (build ~encode:(Direct.encode direct_cfg)) star_prm in
  let hash_bytes = Bytes.create 8 in
  Buf.set_int_le hash_bytes 0 (Parent.stream_hash ~seed alice);
  let body = function None -> Bytes.empty | Some tbl -> Iblt.body_bytes tbl in
  let payload =
    Buf.append_all
      (Array.to_list (Array.map body alice_tables) @ [ body alice_star; hash_bytes ])
  in
  match Comm.xfer comm Comm.A_to_b ~label:"cascade-tables+hash" payload with
  | Error `Lost -> Error `Decode_failure
  | Ok delivered -> (
  (* Bob re-slices the levels by their (public) parameters; a truncated or
     resized transmission fails here, totally. *)
  let r = Codec.reader delivered in
  let parse_ok = ref true in
  let parse_table = function
    | None -> None
    | Some prm -> (
      match Option.bind (Codec.take r (Iblt.body_length prm)) (Iblt.of_body_bytes_opt prm) with
      | None ->
        parse_ok := false;
        None
      | Some tbl -> Some tbl)
  in
  let alice_tables = Array.map parse_table outers in
  let alice_star = parse_table star_prm in
  let alice_digest = match Codec.int62 r with Some g when Codec.at_end r -> g | _ -> -1 in
  if (not !parse_ok) || alice_digest < 0 then Error `Decode_failure
  else begin
  (* ---- Bob. Level 1: identify D_B and recover what the tiny tables
     allow. ---- *)
  let bob_l1 = Iblt.create (Option.get outers.(1)) in
  let child_of_key =
    Parent.stream_iter_indexed ~seed bob ~encode:(Encoding.encode cfgs.(1))
      ~sink:(Iblt.add_all bob_l1)
  in
  match Iblt.decode (Iblt.subtract (Option.get alice_tables.(1)) bob_l1) with
  | Error `Peel_stuck -> Error `Decode_failure
  | Ok { positives; negatives } -> (
    let db = List.filter_map child_of_key negatives in
    if List.length db <> List.length negatives then Error `Decode_failure
    else begin
      let db_tbl = Iset.Tbl.create (List.length db) in
      List.iter (fun c -> Iset.Tbl.replace db_tbl c ()) db;
      let da = ref [] in
      let da_tbl = Iset.Tbl.create 64 in
      let per_level = Array.make (t + if use_star then 1 else 0) 0 in
      (* Record a recovered child once, crediting the slot it surfaced at. *)
      let add_da slot child =
        if not (Iset.Tbl.mem da_tbl child) then begin
          Iset.Tbl.replace da_tbl child ();
          da := child :: !da;
          per_level.(slot) <- per_level.(slot) + 1
        end
      in
      let try_level i keys =
        List.iter
          (fun alice_key ->
            Option.iter (add_da (i - 1))
              (List.find_map
                 (fun bob_child -> Encoding.try_recover cfgs.(i) ~alice_key ~bob_child)
                 db))
          keys
      in
      (* Alice's table minus everything Bob can account for (his children
         outside D_B, and what he recovered so far) leaves her
         still-unrecovered children. *)
      let leftovers table ~encode =
        let table = Iblt.copy table in
        Parent.stream_iter_encoded bob
          ~keep:(fun c -> not (Iset.Tbl.mem db_tbl c))
          ~encode ~sink:(Iblt.delete_all table);
        Iblt.delete_all table (Array.of_list (List.map encode !da));
        Iblt.decode table
      in
      try_level 1 positives;
      (* Levels 2..t: pair the leftovers up with D_B. *)
      for i = 2 to t do
        match leftovers (Option.get alice_tables.(i)) ~encode:(Encoding.encode cfgs.(i)) with
        | Error `Peel_stuck -> () (* recovered at a later level or T* *)
        | Ok { positives; negatives = _ } -> try_level i positives
      done;
      (* T*: direct encodings as the final backstop. *)
      Option.iter
        (fun star ->
          match leftovers star ~encode:(Direct.encode direct_cfg) with
          | Error `Peel_stuck -> ()
          | Ok { positives; negatives = _ } ->
            List.iter (fun key -> Option.iter (add_da t) (Direct.decode direct_cfg key)) positives)
        alice_star;
      let delta : Parent.delta = { a_only = !da; b_only = db } in
      if Parent.delta_digest ~seed ~base:(Parent.stream_hash ~seed bob) delta = alice_digest then
        Ok
          {
            recovered = delta;
            levels = t;
            used_star = use_star;
            recovered_per_level = per_level;
            stats = Comm.stats comm;
          }
      else Error `Decode_failure
    end)
  end)

(* The materialized entry points are views of [run]: stream both parents,
   then apply the recovered delta to Bob. *)
let via_stream comm ~alice ~bob run =
  match run ~alice:(Parent.stream_of_t alice) ~bob:(Parent.stream_of_t bob) with
  | Ok o -> Ok { o with recovered = Parent.apply_delta bob o.recovered }
  | Error `Decode_failure -> Error (`Decode_failure (Comm.stats comm))

let reconcile_known ~seed ~d ~u ~h ?d_hat ?s_bound ?(k = 3) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let d_hat = match d_hat with Some dh -> dh | None -> min d s_bound in
  let comm = Comm.create () in
  via_stream comm ~alice ~bob (run ~comm ~seed ~enc_seed:None ~d ~d_hat ~s_bound ~u ~h ~k)

let reconcile_unknown ~seed ~u ~h ?s_bound ?(k = 3) ?(max_d = 1 lsl 22) ~alice ~bob () =
  let s_bound = match s_bound with Some s -> s | None -> max 2 (Parent.cardinal bob) in
  let comm = Comm.create () in
  let rec attempt d =
    if d > max_d then Error (`Decode_failure (Comm.stats comm))
    else begin
      let d_hat = min d s_bound in
      let seed = Prng.derive ~seed ~tag:(0xCC0 + Bits.ceil_log2 (d + 1)) in
      match via_stream comm ~alice ~bob (run ~comm ~seed ~enc_seed:None ~d ~d_hat ~s_bound ~u ~h ~k) with
      | Ok o -> Ok o
      | Error _ ->
        Ssr_obs.Metrics.incr m_retries;
        Comm.send comm Comm.B_to_a ~label:"retry" ~bits:8;
        attempt (2 * d)
    end
  in
  attempt 1
