(* graph_million: the north-star scale. One stack per process (run.py
   starts a fresh process for each), so no stack inherits another's
   encodings or heap high-water mark.

   Set-up generates the seeded graph dataset (2.5*10^5 nodes, ~1.2*10^6
   elements) and its 64-edit twin and materializes both. The timed phase is
   one closed-loop Resilient session over the faulty channel (2% drop, 1%
   corrupt), repeated under sibling seeds while a fifth of the run's
   seconds last. In the traced run the first session is repeated with
   spans on, and the bare protocol (Protocol.reconcile_known, no link)
   runs on the same pair and seed; each of those runs in its own process
   too ([--part]). *)

open Common
module Prng = Ssr_util.Prng
module Datasets = Ssr_apps.Datasets
module Channel = Ssr_transport.Channel
module Set_recon = Ssr_setrecon.Set_recon

let nodes = 250_000

let avg_degree = 4

let edits = 64

let drop = 0.02

let corrupt = 0.01

(* Set-up in [step]s of [st], one per materialization. *)
let make_input st ~seed ~stack =
  span "apps.datasets_s" (fun () ->
      let alice, bob_inst, alice_inst =
        step st (fun () ->
            let bob_inst = Datasets.graph ~seed:(Prng.derive ~seed ~tag:1) ~nodes ~avg_degree in
            let alice_inst = Datasets.pair ~seed:(Prng.derive ~seed ~tag:2) ~edits bob_inst in
            (Parent.of_stream alice_inst.Datasets.stream, bob_inst, alice_inst))
      in
      let bob = step st (fun () -> Parent.of_stream bob_inst.Datasets.stream) in
      let flat = lazy (flatten alice, flatten bob) in
      if stack = "set" then ignore (step st (fun () -> Lazy.force flat));
      {
        alice;
        bob;
        flat;
        u = alice_inst.Datasets.universe;
        h = alice_inst.Datasets.max_child_size;
      })

(* One Resilient session of [stack] over the faulty channel; returns the
   verifier. *)
let session ~seed ~stack inp () =
  let channel =
    Channel.create (Channel.config_with ~drop ~corrupt ~seed:(Prng.derive ~seed ~tag:3) ())
  in
  resilient_session ~link:(Resilient.over_channel channel) ~seed:(Prng.derive ~seed ~tag:4)
    ~stack ~initial_d:edits inp

(* The bare protocol on the same pair and seed, no link: the core share of
   a session. *)
let bare_protocol ~seed ~stack inp =
  let rseed = Prng.derive ~seed ~tag:4 in
  let d = edits in
  if stack = "set" then begin
    let fa, fb = Lazy.force inp.flat in
    match Set_recon.reconcile_known_d ~seed:rseed ~d ~alice:fa ~bob:fb () with
    | Ok o -> Iset.equal o.Set_recon.recovered fa
    | Error _ -> false
  end
  else
    match
      Protocol.reconcile_known (kind_of stack) ~seed:rseed ~d ~u:inp.u ~h:inp.h ~alice:inp.alice
        ~bob:inp.bob ()
    with
    | Ok o -> Parent.equal o.Protocol.recovered inp.alice
    | Error _ -> false

(* [part]: "session" (the measured run), "traced" (the same session with
   spans on) or "protocol" (the bare protocol, spans on). Each runs in a
   process of its own, so none inherits another's encodings. *)
let run ~seed ~seconds ~stack ~part =
  let k = kind stack in
  tracing := part <> "session";
  let st = steps () in
  let inp = make_input st ~seed ~stack in
  let setup_s = st.total in
  let schedule n = [| (k, session ~seed:(pass_seed ~seed n) ~stack inp) |] in
  let counters, extra =
    match part with
    | "session" ->
      (* A fifth of the run's seconds per stack: the fast stacks get
         several passes, cascade and iblt-of-iblts one. *)
      let counters, first_s = run_passes ~seconds:(seconds /. 5.) ~kinds:[ k ] ~schedule () in
      (* As measured, like the traced session it is compared with. *)
      (counters, [ ("untraced_session_s", [ first_s ]) ])
    | "traced" ->
      (* The first pass's session again, with spans on. *)
      let s = traced_pass (fun _ -> schedule 0) in
      ([], [ ("traced_session_s", [ s ]) ])
    | "protocol" ->
      let ok =
        span ("core.protocol_s." ^ stack) (fun () -> bare_protocol ~seed ~stack inp)
      in
      if not ok then prerr_endline ("graph_million: bare " ^ stack ^ " protocol failed");
      ([], [])
    | p -> invalid_arg ("graph_million: unknown part " ^ p)
  in
  {
    workload = "graph_million";
    setup = [ setup_s ];
    kinds = [ k ];
    counters;
    extra = ("elements", [ float_of_int (Parent.total_elements inp.alice) ]) :: extra;
    peak_mb = !first_pass_peak_mb;
  }
