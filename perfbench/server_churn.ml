(* server_churn: the reconciliation daemon under reads and writes at once.

   Set-up creates the server, fills its shards to 8 x 8192 members through
   Server.apply_batch, and builds every client (shared per-shard base plus a
   small delta) with its own lossy network. The timed phase is an open-loop
   schedule of client sessions interleaved with a mutation stream. The
   stream adds fresh keys and removes keys it added earlier, each key once,
   so every removal is distinct and the shards' taint bound is crossed
   again and again (Load_gen's toggled hot pool never crosses it).

   A pass repeats set-up and the timed phase on fresh state; every pass
   after the first runs under a sibling seed (Common.pass_seed), so a
   run's timings average over many schedules, loss patterns and mutation
   streams instead of repeating one. *)

open Common
module Prng = Ssr_util.Prng
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Comm = Ssr_setrecon.Comm
module Server = Ssr_server.Server
module Shard = Ssr_server.Shard
module Client = Ssr_server.Client

let shards = 8

let shard_size = 8192

let clients = 1000

let client_delta = 16

let arrival_gap_us = 500

let batches = 64

let batch_size = 64

(* Fresh keys a shard holds at once: removal j takes the key added
   [window] additions earlier. *)
let window = 8

let drop = 0.02

let latency_us = 2_000

let jitter_us = 500

let base_key ~shard i = (shard lsl 44) + i

let fresh_key ~shard j = (shard lsl 44) + (1 lsl 40) + j

let added_key ~client j = (1 lsl 60) + (client lsl 16) + j

(* The mutation stream: per shard, add the next fresh key while fewer
   than [window] are live, else remove the oldest live one. Also returns,
   per shard, the live fresh keys after each batch (sorted): the states a
   session can be pinned to. *)
let mutation_stream ~seed =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x307A7E) in
  let next = Array.make shards 0 in
  let live = Array.init shards (fun _ -> Queue.create ()) in
  let snapshot shard = List.sort compare (List.of_seq (Queue.to_seq live.(shard))) in
  let states = Array.make_matrix shards (batches + 1) [] in
  let stream =
    Array.init batches (fun b ->
        let batch =
          Array.init batch_size (fun _ ->
              let shard = Prng.int_below rng shards in
              if Queue.length live.(shard) < window then begin
                let key = fresh_key ~shard next.(shard) in
                next.(shard) <- next.(shard) + 1;
                Queue.push key live.(shard);
                (shard, Shard.Add key)
              end
              else (shard, Shard.Remove (Queue.pop live.(shard))))
        in
        for shard = 0 to shards - 1 do
          states.(shard).(b + 1) <- snapshot shard
        done;
        batch)
  in
  (stream, states)

type client = {
  cl : Client.t;
  shard : int;
  added : int array;
  removed : int array;
  wire_bytes : int ref;
}

(* Ground truth for one finished client: it must have learnt exactly
   (its additions, its removals plus the live fresh keys) of some state
   the mutation stream passed through. *)
let verify_client states c =
  match Client.outcome c.cl with
  | Client.Pending | Client.Failed _ ->
    {
      verified = false;
      silent = false;
      bits = 8 * !(c.wire_bytes);
      rounds = 0;
      first_try = false;
      vlat_us = None;
    }
  | Client.Succeeded { latency_us; _ } ->
    let expected_client = List.sort compare (Array.to_list c.added) in
    let removed = Array.to_list c.removed in
    let ok =
      match Client.recovered_diff c.cl with
      | None -> false
      | Some (client_only, server_only) ->
        client_only = expected_client
        && Array.exists
             (fun live -> server_only = List.sort compare (removed @ live))
             states.(c.shard)
    in
    {
      verified = ok;
      silent = not ok;
      bits = 8 * !(c.wire_bytes);
      rounds = 0;
      first_try = false;
      vlat_us = Some latency_us;
    }

type pass = {
  setup_s : float;  (** At the nominal speed. *)
  session_s : float;  (** The session phase without apply. *)
  apply_s : float;
  applied : int;  (** Effective mutations. *)
  phase_scale : float;  (** Nominal seconds per measured second of the timed phase. *)
  counters : (string * float) list;  (** Empty unless asked for. *)
  outcomes : outcome array;
}

(* One pass on fresh state: set-up, then the timed phase, then the
   ground-truth check of every client. It starts after a full major
   collection, outside the clock, so its set-up does not collect the
   previous pass's garbage (without it, set-up times fell into two groups
   a quarter apart). Speed readings before set-up, between set-up and the
   phase, and after the phase scale both. *)
let pass ~seed ~window:with_window =
  Gc.full_major ();
  let y0 = speed () in
  let setup_t0 = now_ns () in
  let clock = Clock.create () in
  let cfg = Server.default_config ~seed ~shards () in
  let server = Server.create ~clock cfg in
  let fill =
    Array.init (shards * shard_size) (fun idx ->
        (idx / shard_size, Shard.Add (base_key ~shard:(idx / shard_size) (idx mod shard_size))))
  in
  let filled = span "server.fill_s" (fun () -> Server.apply_batch server fill) in
  if filled <> Array.length fill then failwith "server_churn: fill lost mutations";
  let bases =
    Array.init shards (fun shard ->
        Client.Base.create ~server_seed:seed ~shard ~rung_caps:cfg.Server.rung_caps
          ~check_bits:cfg.Server.check_bits
          ~members:(Array.init shard_size (fun i -> base_key ~shard i)))
  in
  let cs =
    Array.init clients (fun i ->
        let shard = i mod shards in
        let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(0xC11E00 + i)) in
        let n_add = client_delta / 2 in
        let added = Array.init n_add (fun j -> added_key ~client:i j) in
        let removed =
          let seen = Hashtbl.create client_delta in
          Array.init (client_delta - n_add) (fun _ ->
              let rec draw () =
                let idx = Prng.int_below rng shard_size in
                if Hashtbl.mem seen idx then draw ()
                else begin
                  Hashtbl.add seen idx ();
                  base_key ~shard idx
                end
              in
              draw ())
        in
        let net =
          Network.create ~clock
            (Network.config_with ~drop ~latency_us ~jitter_us
               ~seed:(Prng.derive ~seed ~tag:(0x7E700 + i))
               ())
        in
        (* Every byte either side puts on the link, lost copies included. *)
        let wire_bytes = ref 0 in
        let send dir label b =
          wire_bytes := !wire_bytes + Bytes.length b;
          Network.send net dir ~label b
        in
        let c =
          {
            cl =
              Client.create ~clock ~send:(send Comm.A_to_b "cli") ~base:bases.(shard)
                ~session:(i + 1) ~added ~removed ();
            shard;
            added;
            removed;
            wire_bytes;
          }
        in
        let conn = Server.connect server ~reply:(send Comm.B_to_a "srv") in
        Network.on_deliver net (fun dir bytes ->
            match dir with
            | Comm.A_to_b -> Server.receive server conn bytes
            | Comm.B_to_a -> Client.on_receive c.cl bytes);
        (* Open loop: session i is due at its scheduled time whatever the
           server's state. *)
        let at_us = (i * arrival_gap_us) + Prng.int_below rng arrival_gap_us in
        ignore (Clock.schedule clock ~at_us (fun () -> Client.start c.cl));
        c)
  in
  let stream, states = mutation_stream ~seed in
  let apply_s = ref 0. and applied = ref 0 in
  let span_us = clients * arrival_gap_us in
  Array.iteri
    (fun b batch ->
      let at_us = (b + 1) * span_us / (batches + 1) in
      ignore
        (Clock.schedule clock ~at_us (fun () ->
             let n, dt =
               timed (fun () -> span "server.apply_s" (fun () -> Server.apply_batch server batch))
             in
             apply_s := !apply_s +. dt;
             applied := !applied + n)))
    stream;
  let setup_s = secs_since setup_t0 in
  let y1 = speed () in
  (* Clients finish roughly in arrival order: scan from the first one
     still pending, so the check is O(1) amortized. *)
  let first_pending = ref 0 in
  let all_done () =
    while !first_pending < clients && Client.outcome cs.(!first_pending).cl <> Client.Pending do
      incr first_pending
    done;
    !first_pending = clients
  in
  let w = if with_window then Some (open_window ()) else None in
  let (), phase_s =
    timed (fun () ->
        span "server.pump_s" (fun () ->
            Clock.run_until clock ~deadline_us:3_600_000_000 ~stop:all_done))
  in
  let counters = match w with Some w -> close_window w | None -> [] in
  let y2 = speed () in
  if !applied <> batches * batch_size then failwith "server_churn: a mutation was not effective";
  {
    setup_s = corrected ~before:y0 ~after:y1 setup_s;
    session_s = phase_s -. !apply_s;
    apply_s = !apply_s;
    applied = !applied;
    phase_scale = corrected ~before:y1 ~after:y2 1.;
    counters;
    outcomes = Array.map (fun c -> span "bench.verify_s" (fun () -> verify_client states c)) cs;
  }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Passes until [seconds] (set-up included) are used, every one on fresh
   server state, the first with the run's seed and the rest with sibling
   seeds; then, when tracing, one traced pass with the run's seed. *)
let run ~seed ~seconds ~trace =
  let k = kind "server" in
  let setups = ref [] and applies = ref [] and counters = ref [] and untraced = ref [] in
  let completed p = Array.fold_left (fun n o -> if o.vlat_us <> None then n + 1 else n) 0 p.outcomes in
  tracing := false;
  repeat_passes ~seconds (fun n ->
      let first = n = 0 in
      let p, total = timed (fun () -> pass ~seed:(pass_seed ~seed n) ~window:first) in
      Array.iter (record_pass k ~first) p.outcomes;
      if first then begin
        counters := p.counters;
        first_pass_peak_mb := peak_heap_mb ()
      end;
      untraced := (p.session_s +. p.apply_s) :: !untraced;
      setups := p.setup_s :: !setups;
      applies := (p.apply_s *. p.phase_scale *. 1e9 /. float_of_int p.applied) :: !applies;
      k.pass_s <- (p.session_s *. p.phase_scale /. float_of_int (max 1 (completed p))) :: k.pass_s;
      total);
  let traced =
    if not trace then []
    else begin
      tracing := true;
      let p = pass ~seed ~window:false in
      Array.iter (record_pass k ~first:false) p.outcomes;
      [ ("trace.overhead_ratio", [ (p.session_s +. p.apply_s) /. median !untraced ]) ]
    end
  in
  {
    workload = "server_churn";
    setup = List.rev !setups;
    kinds = [ k ];
    counters = !counters;
    extra =
      ("apply_ns_per_mutation", List.rev !applies)
      :: ("mutations", [ float_of_int (batches * batch_size) ])
      :: traced;
    peak_mb = !first_pass_peak_mb;
  }
