module Iset = Ssr_util.Iset
module Prng = Ssr_util.Prng
module Hashing = Ssr_util.Hashing
module Buf = Ssr_util.Buf
module Par = Ssr_util.Par
module Codec = Ssr_util.Codec
module Iblt = Ssr_sketch.Iblt
module Comm = Ssr_setrecon.Comm

type t = Iset.t array
(* Invariant: strictly increasing under Iset.compare (so children are
   distinct and the representation is canonical). *)

let of_children kids =
  let arr = Array.of_list (List.sort_uniq Iset.compare kids) in
  arr

let children t = Array.to_list t

let cardinal = Array.length

let total_elements t = Array.fold_left (fun acc c -> acc + Iset.cardinal c) 0 t

let max_child_size t = Array.fold_left (fun acc c -> max acc (Iset.cardinal c)) 0 t

let equal (a : t) b = a = b

let compare (a : t) b = Stdlib.compare a b

let mem child t = Array.exists (fun c -> Iset.equal c child) t

let canonical_bytes t =
  (* Length-prefix each child so the concatenation is injective. *)
  Buf.append_all
    (List.concat_map
       (fun c -> [ Buf.of_int_list [ Iset.cardinal c ]; Iset.canonical_bytes c ])
       (children t))

let hash_tag = 0x9A3E

let hash ~seed t = Hashing.hash_bytes (Hashing.make ~seed ~tag:hash_tag) (canonical_bytes t)

let symmetric_diff a b =
  let a_only = List.filter (fun c -> not (mem c b)) (children a) in
  let b_only = List.filter (fun c -> not (mem c a)) (children b) in
  (a_only, b_only)

let relaxed_matching_cost a b =
  let one_side xs other =
    List.fold_left
      (fun acc c ->
        let best =
          Array.fold_left (fun m c' -> min m (Iset.sym_diff_size c c')) (Iset.cardinal c) other
        in
        acc + best)
      0 xs
  in
  let a_only, b_only = symmetric_diff a b in
  one_side a_only b + one_side b_only a

type edit = { child_index : int; element : int; kind : [ `Add | `Del ] }

let perturb rng ~universe ?max_child_size:cap ~edits t =
  if Array.length t = 0 then invalid_arg "Parent.perturb: empty parent";
  let kids = Array.copy t in
  (* Track touched (child, element) pairs so edits never cancel. *)
  let touched = Hashtbl.create (2 * edits) in
  let log = ref [] in
  let applied = ref 0 in
  let attempts = ref 0 in
  while !applied < edits && !attempts < 1000 * (edits + 1) do
    incr attempts;
    let i = Prng.int_below rng (Array.length kids) in
    let child = kids.(i) in
    let do_del = Prng.bool rng && not (Iset.is_empty child) in
    if do_del then begin
      let arr = Iset.to_array child in
      let x = arr.(Prng.int_below rng (Array.length arr)) in
      if not (Hashtbl.mem touched (i, x)) then begin
        Hashtbl.add touched (i, x) ();
        kids.(i) <- Iset.remove x child;
        log := { child_index = i; element = x; kind = `Del } :: !log;
        incr applied
      end
    end
    else begin
      let room = match cap with None -> true | Some h -> Iset.cardinal child < h in
      if room then begin
        let x = Prng.int_below rng universe in
        if (not (Iset.mem x child)) && not (Hashtbl.mem touched (i, x)) then begin
          Hashtbl.add touched (i, x) ();
          kids.(i) <- Iset.add x child;
          log := { child_index = i; element = x; kind = `Add } :: !log;
          incr applied
        end
      end
    end
  done;
  if !applied < edits then failwith "Parent.perturb: could not place all edits";
  (of_children (Array.to_list kids), List.rev !log)

let random rng ~universe ~children:s ~child_size =
  if child_size > universe then invalid_arg "Parent.random: child_size > universe";
  let rec distinct acc remaining guard =
    if remaining = 0 then acc
    else if guard > 100 * s then failwith "Parent.random: cannot draw distinct children"
    else begin
      let c = Iset.random_subset rng ~universe ~size:child_size in
      if List.exists (Iset.equal c) acc then distinct acc remaining (guard + 1)
      else distinct (c :: acc) (remaining - 1) guard
    end
  in
  of_children (distinct [] s 0)

(* ---- Streaming views. ----

   A stream presents a parent as a pure random-access function of position:
   child [i] is recomputable at any time, so protocol build passes can walk
   the children in bounded memory (encode a chunk, land it in the sketch,
   drop it) and recovery sweeps can fetch individual children by index
   instead of rescanning. Children must be distinct and in-universe, like
   the materialized representation's invariant. *)

type stream = { length : int; child : int -> Iset.t }

let stream_of_t (t : t) = { length = Array.length t; child = (fun i -> t.(i)) }

let of_stream st = of_children (List.init st.length st.child)

let stream_to_seq ?(from = 0) st =
  let rec go i () =
    if i >= st.length then Seq.Nil else Seq.Cons (st.child i, go (i + 1))
  in
  go from

let stream_total_elements st =
  let n = ref 0 in
  for i = 0 to st.length - 1 do
    n := !n + Iset.cardinal (st.child i)
  done;
  !n

let stream_max_child_size st =
  let h = ref 0 in
  for i = 0 to st.length - 1 do
    h := max !h (Iset.cardinal (st.child i))
  done;
  !h

(* Chunked encode-and-land: children [base, base+chunk) are encoded under
   the parallel pool (order-preserving) and handed to [sink] as one batch —
   the Iblt.add_all path — so a build touches at most [chunk] encodings at
   a time. XOR-linear sinks make the chunking bit-identical to a one-shot
   whole-parent batch. Children [keep] rejects are never encoded. Each
   chunk is one [Enc_cache.deferring] batch, so what the cache admits does
   not depend on the pool size. *)
let stream_iter_encoded ?(chunk = 4096) ?keep st ~encode ~sink =
  let n = st.length in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    let base = !i in
    let batch f = Enc_cache.deferring (fun () -> Par.init len f) in
    (match keep with
    | None -> sink (batch (fun j -> encode (st.child (base + j))))
    | Some keep ->
      let encoded =
        batch (fun j ->
            let c = st.child (base + j) in
            if keep c then Some (encode c) else None)
      in
      sink (Array.of_seq (Seq.filter_map Fun.id (Array.to_seq encoded))));
    i := !i + len
  done

(* [stream_iter_encoded] that also remembers, per encoding fingerprint,
   the positions that produced it, so a key peeled out of a difference maps
   back to its child without a rescan: O(s) ints, never the children. A
   candidate is confirmed by re-encoding it (a cache hit), so fingerprint
   collisions cost time, not correctness. *)
let encoded_index_tag = 0xF19B

let stream_iter_indexed ~seed st ~encode ~sink =
  let fp_of = Hashing.hash_bytes (Hashing.make ~seed ~tag:encoded_index_tag) in
  let positions : (int, int) Hashtbl.t = Hashtbl.create (2 * st.length) in
  let base = ref 0 in
  stream_iter_encoded st ~encode ~sink:(fun keys ->
      Array.iteri (fun j key -> Hashtbl.add positions (fp_of key) (!base + j)) keys;
      sink keys;
      base := !base + Array.length keys);
  fun key ->
    List.find_map
      (fun i ->
        let c = st.child i in
        if Bytes.equal (encode c) key then Some c else None)
      (List.rev (Hashtbl.find_all positions (fp_of key)))

(* Order-independent whole-parent digest: the sum, modulo 2^62, of salted
   per-child hashes. The canonical [hash] needs the children in sorted
   order — impossible to produce from a stream without materializing —
   while a sum commutes, and Bob can adjust it incrementally: subtracting
   his extra children and adding Alice's recovered ones must land exactly
   on Alice's digest. Unlike XOR, the sum tells adding a child from
   removing it, and a child counted twice does not cancel out. *)
let stream_hash_tag = 0x57A9

let child_digest ~seed c =
  Hashing.hash_bytes (Hashing.make ~seed ~tag:stream_hash_tag) (Iset.canonical_bytes c)

(* [max_int] is 2^62 - 1, so masking with it reduces modulo 2^62 (the
   native 63-bit wrap-around is a multiple of 2^62). *)
let stream_hash ~seed st =
  let acc = ref 0 in
  for i = 0 to st.length - 1 do
    acc := (!acc + child_digest ~seed (st.child i)) land max_int
  done;
  !acc

(* The one-table message of naive, iblt-of-iblts and multiround: the table
   body, then the 8-byte guard. Bob re-slices it by the public [prm], so a
   lost, truncated or resized delivery yields [None]. *)
let xfer_guarded comm ~label prm table ~guard =
  let g = Bytes.create 8 in
  Buf.set_int_le g 0 guard;
  match Comm.xfer comm Comm.A_to_b ~label (Bytes.cat (Iblt.body_bytes table) g) with
  | Error `Lost -> None
  | Ok delivered -> (
    let r = Codec.reader delivered in
    match (Codec.take r (Iblt.body_length prm), Codec.int62 r) with
    | Some body, Some h when Codec.at_end r ->
      Option.map (fun t -> (t, h)) (Iblt.of_body_bytes_opt prm body)
    | _ -> None)

type delta = { a_only : Iset.t list; b_only : Iset.t list }

(* Bob's verification step: starting from his own digest, subtract what
   only he has and add what he recovered; the result must equal Alice's. *)
let delta_digest ~seed ~base { a_only; b_only } =
  let sum = List.fold_left (fun acc c -> acc + child_digest ~seed c) 0 in
  (base - sum b_only + sum a_only) land max_int

let apply_delta t { a_only; b_only } =
  let drop = Iset.Tbl.create (List.length b_only) in
  List.iter (fun c -> Iset.Tbl.replace drop c ()) b_only;
  of_children (a_only @ List.filter (fun c -> not (Iset.Tbl.mem drop c)) (children t))

let pp fmt t =
  Format.fprintf fmt "parent(s=%d){%a}" (cardinal t)
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") Iset.pp)
    (children t)
