(* ladder_net: many small sessions over the simulated network, so the
   escalation ladder, framing and CRC, ARQ retransmission and round trips
   dominate rather than sketch work.

   Set-up generates [pairs] seeded Zipf parent pairs of 100-250 children
   whose true difference is 4-16x the [initial_d] handed to Resilient, and
   materializes them. The schedule is closed loop and
   round-robin over the five stacks: session i reconciles pair i/5 with
   stack i mod 5, each over its own network (latency, jitter, 5% drop,
   1% corruption, reordering) and ARQ. *)

open Common
module Prng = Ssr_util.Prng
module Datasets = Ssr_apps.Datasets
module Clock = Ssr_transport.Clock
module Network = Ssr_transport.Network
module Arq = Ssr_transport.Arq

let pairs = 200

let initial_d = 4

let drop = 0.05

let corrupt = 0.01

let latency_us = 2_000

let jitter_us = 1_000

let reorder = 0.05

(* Pair i's shape (children, edits) depends on i alone, so every seed
   runs the same mix of sizes and only the contents vary. *)
let make_pair ~seed i =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(0x1AD0 + i)) in
  let parents = 100 + (i * 37 mod 151) in
  let edits = initial_d * (4 + (i mod 13)) in
  let bob_inst =
    Datasets.zipf ~seed:(Prng.next_int64 rng) ~parents ~universe:(1 lsl 30) ~max_child_size:16
      ~alpha:1.0
  in
  let alice_inst = Datasets.pair ~seed:(Prng.next_int64 rng) ~edits bob_inst in
  let alice = Parent.of_stream alice_inst.Datasets.stream in
  let bob = Parent.of_stream bob_inst.Datasets.stream in
  {
    alice;
    bob;
    flat = Lazy.from_val (flatten alice, flatten bob);
    u = alice_inst.Datasets.universe;
    h = alice_inst.Datasets.max_child_size;
  }

let session ~seed ~stack ~index p () =
  let clock = Clock.create () in
  let nseed = Prng.derive ~seed ~tag:(0x5E55 + index) in
  let network =
    Network.create ~clock
      (Network.config_with ~drop ~corrupt ~latency_us ~jitter_us ~reorder ~seed:nseed ())
  in
  let arq = Arq.create ~clock ~network ~seed:nseed () in
  resilient_session ~link:(Resilient.over_network arq) ~seed:(Prng.derive ~seed:nseed ~tag:1)
    ~stack ~initial_d p

(* The bare protocols on every pair at the known true difference, no
   link: the core share the ladder overhead is measured against. *)
let bare_protocols ~seed (inputs : sos_pair array) =
  Array.iteri
    (fun index p ->
      List.iter
        (fun stack ->
          let rseed = Prng.derive ~seed:(Prng.derive ~seed ~tag:(0x5E55 + index)) ~tag:1 in
          let d = max 1 (Parent.relaxed_matching_cost p.alice p.bob) in
          span ("core.protocol_s." ^ stack) (fun () ->
              if stack = "set" then
                let fa, fb = Lazy.force p.flat in
                ignore (Ssr_setrecon.Set_recon.reconcile_known_d ~seed:rseed ~d ~alice:fa ~bob:fb ())
              else
                ignore
                  (Protocol.reconcile_known (kind_of stack) ~seed:rseed ~d ~u:p.u ~h:p.h
                     ~alice:p.alice ~bob:p.bob ())))
        stacks)
    inputs

let run ~seed ~seconds ~trace =
  tracing := trace;
  let make_inputs () = span "apps.datasets_s" (fun () -> Array.init pairs (make_pair ~seed)) in
  let inputs, s0 = timed_corrected make_inputs in
  (* Set-up is repeated, outside the clock, after every 100 sessions: the
     machine's speed drifts over seconds, so repetitions spread over the
     whole run give a steadier median than repetitions back to back. *)
  let setup_s = ref [ s0 ] in
  let resetup () = setup_s := snd (timed_corrected make_inputs) :: !setup_s in
  let kinds = List.map (fun s -> (s, kind s)) stacks in
  let n = List.length stacks in
  let schedule pass =
    let seed = pass_seed ~seed pass in
    Array.init (pairs * n) (fun index ->
        let stack = List.nth stacks (index mod n) in
        (List.assoc stack kinds, session ~seed ~stack ~index inputs.(index / n)))
  in
  tracing := false;
  let counters, untraced_s =
    run_passes ~between:(100, resetup) ~seconds ~kinds:(List.map snd kinds) ~schedule ()
  in
  let extra =
    if not trace then []
    else begin
      let traced_s = traced_pass schedule in
      (* Same pairs, its own salt: the cache holds nothing for it. *)
      bare_protocols ~seed:(pass_seed ~seed (traced_pass_number + 1)) inputs;
      [ ("trace.overhead_ratio", [ traced_s /. untraced_s ]) ]
    end
  in
  {
    workload = "ladder_net";
    setup = List.rev !setup_s;
    kinds = List.map snd kinds;
    counters;
    extra;
    peak_mb = !first_pass_peak_mb;
  }
