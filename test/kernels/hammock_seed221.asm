// Workloads.Generator.kernel ~size:34 ~seed:221 ()
.kernel random-221
bb0:
  setp         %r5, %r1, %r1
  br %r5, bb2, p=0.192893
bb1:
  add.s32      %r4, %r4, %r4
  add.f32      %r4, %r4, %r1
  selp         %r6, %r3, %r4, %r0
bb2:
  sub.s32      %r7, %r1, %r3
  st.global    %r7, %r1
  st.shared    %r0, %r4
  ld.shared    %r8, %r1
  ld.global    %r9, %r1
  sub.s32      %r10, %r7, %r0
  ld.global    %r11, %r8
  and.b32      %r12, %r3, %r10
  add.f32      %r13, %r1, %r11
  ld.shared    %r14, %r1
  fma.f32      %r15, %r3, %r13, %r9
  setp         %r16, %r15, %r8
  br %r16, bb4, p=0.799088
bb3:
  add.f32      %r13, %r2, %r4
bb4:
  setp         %r17, %r7, %r8
  br %r17, bb6, p=0.172382
bb5:
  add.s32      %r15, %r3, %r9
  jmp bb7
bb6:
  mul.f32      %r15, %r9, %r3
bb7:
  add.s32      %r18, %r8, %r10
  add.f32      %r19, %r13, %r8
  ld.shared    %r20, %r0
  ld.shared    %r21, %r14
  mov          %r22
bb8:
  ld.global    %r23, %r22
  st.global    %r3, %r20
  add.f32      %r24, %r9, %r22
  st.shared    %r14, %r21
  st.global    %r0, %r10
  add.s32      %r22, %r22, %r22
  setp         %r25, %r22
  br %r25, bb8, loop=6
bb9:
  mov          %r26
bb10:
  st.global    %r18, %r22
  selp         %r27, %r26, %r26, %r23
  add.s32      %r26, %r26, %r26
  setp         %r28, %r26
  br %r28, bb10, loop=2
bb11:
  setp         %r29, %r19, %r13
  br %r29, bb13, p=0.0490669
bb12:
  add.s32      %r4, %r9, %r3
  jmp bb14
bb13:
  mul.f32      %r4, %r3, %r9
bb14:
  mov          %r30
bb15:
  add.f32      %r31, %r14, %r0
  and.b32      %r32, %r4, %r2
  add.s32      %r30, %r30, %r30
  setp         %r33, %r30
  br %r33, bb15, loop=7
bb16:
  mov          %r34
bb17:
  tex          %r35, %r1
  sub.f32      %r36, %r1, %r15
  ld.shared    %r37, %r21
  add.f32      %r35, %r20, %r1
  ld.global    %r38, %r4
  add.s32      %r34, %r34, %r34
  setp         %r39, %r34
  br %r39, bb17, loop=2
bb18:
  fma.f32      %r40, %r7, %r18, %r15
  st.global    %r13, %r4
  ld.shared    %r41, %r18
  add.s32      %r1, %r0, %r26
  sin.f32      %r42, %r41
  mov          %r43
bb19:
  ld.global    %r44, %r15
  ld.global    %r45, %r40
  ex2.f32      %r46, %r20
  selp         %r47, %r3, %r31, %r30
  fma.f32      %r48, %r30, %r11, %r10
  tex          %r49, %r20
  sub.s32      %r50, %r8, %r13
  st.shared    %r31, %r23
  st.global    %r34, %r27
  sin.f32      %r51, %r30
  add.s32      %r43, %r43, %r43
  setp         %r52, %r43
  br %r52, bb19, loop=4
bb20:
  setp         %r53, %r42, %r9
  br %r53, bb22, p=0.375668
bb21:
  add.s32      %r4, %r14, %r41
  jmp bb23
bb22:
  mul.f32      %r4, %r41, %r14
bb23:
  setp         %r54, %r15, %r15
  br %r54, bb25, p=0.961055
bb24:
  sub.s32      %r55, %r3, %r7
bb25:
  mov          %r56
bb26:
  add.f32      %r57, %r35, %r56
  fma.f32      %r58, %r10, %r3, %r1
  rcp.f32      %r59, %r20
  mul.f32      %r58, %r45, %r58
  setp         %r60, %r4, %r35
  br %r60, bb28, p=0.0548657
bb27:
  sin.f32      %r61, %r57
  mul.f32      %r4, %r41, %r4
  mul.f32      %r62, %r14, %r3
bb28:
  add.s32      %r56, %r56, %r56
  setp         %r63, %r56
  br %r63, bb26, loop=3
bb29:
  mov          %r64
bb30:
  ld.global    %r65, %r43
  ld.global    %r66, %r26
  ex2.f32      %r67, %r3
  st.shared    %r41, %r41
  add.s32      %r68, %r15, %r34
  and.b32      %r69, %r9, %r9
  mov          %r70
bb31:
  fma.f32      %r71, %r4, %r15, %r50
  tex          %r72, %r37
  sub.s32      %r73, %r19, %r72
  add.s32      %r70, %r70, %r70
  setp         %r74, %r70
  br %r74, bb31, loop=2
bb32:
  add.s32      %r64, %r64, %r64
  setp         %r75, %r64
  br %r75, bb30, loop=7
bb33:
  mov          %r76
bb34:
  ld.global.wide64 %r77, %r42
  add.s32      %r78, %r66, %r11
  ld.global    %r79, %r46
  mov          %r80
bb35:
  and.b32      %r81, %r1, %r11
  add.f32      %r82, %r64, %r4
  add.s32      %r80, %r80, %r80
  setp         %r83, %r80
  br %r83, bb35, loop=7
bb36:
  add.s32      %r76, %r76, %r76
  setp         %r84, %r76
  br %r84, bb34, loop=3
bb37:
  sub.s32      %r85, %r47, %r76
  add.f32      %r86, %r11, %r26
  ld.global.wide64 %r87, %r11
  ld.global    %r88, %r0
  setp         %r89, %r66, %r73
  br %r89, bb39, p=0.487644
bb38:
  selp         %r90, %r77, %r72, %r36
bb39:
  mov          %r91
bb40:
  ld.global    %r92, %r11
  add.f32      %r92, %r4, %r3
  st.shared    %r77, %r65
  st.shared    %r41, %r13
  mul.f32      %r93, %r8, %r23
  ld.global    %r94, %r31
  add.s32      %r91, %r91, %r91
  setp         %r95, %r91
  br %r95, bb40, loop=3
bb41:
  add.f32      %r96, %r67, %r45
  sub.s32      %r97, %r2, %r7
  st.global    %r67, %r50
  fma.f32      %r98, %r46, %r72, %r86
  add.f32      %r99, %r64, %r7
  add.s32      %r100, %r94, %r44
  add.s32      %r101, %r22, %r14
  and.b32      %r102, %r40, %r15
  ld.global    %r103, %r49
  add.f32      %r104, %r15, %r31
  ld.global    %r105, %r91
  st.global    %r86, %r92
  add.f32      %r106, %r97, %r23
  mul.f32      %r107, %r14, %r70
  ld.global    %r108, %r4
  ld.global    %r109, %r2
  add.f32      %r110, %r10, %r91
  ld.global    %r111, %r27
  add.s32      %r112, %r93, %r43
  sqrt.f32     %r113, %r64
  add.f32      %r114, %r109, %r18
  ld.global.wide64 %r115, %r114
  st.global    %r66, %r71
  ex2.f32      %r116, %r35
  ld.global    %r117, %r0
  add.f32      %r118, %r97, %r79
  st.shared    %r4, %r93
  add.s32      %r36, %r101, %r23
  add.f32      %r109, %r35, %r19
  st.shared    %r110, %r23
  selp         %r119, %r44, %r45, %r86
  sub.s32      %r120, %r79, %r114
  sub.s32      %r121, %r45, %r19
  fma.f32      %r122, %r86, %r111, %r4
  fma.f32      %r123, %r88, %r88, %r15
  ld.global    %r124, %r0
  setp         %r125, %r9, %r115
  br %r125, bb43, p=0.273886
bb42:
  add.s32      %r46, %r78, %r35
  jmp bb44
bb43:
  mul.f32      %r46, %r35, %r78
bb44:
  st.global    %r30, %r68
  selp         %r126, %r15, %r105, %r73
  tex          %r127, %r71
  and.b32      %r128, %r30, %r85
  add.f32      %r129, %r8, %r82
  mul.f32      %r130, %r8, %r59
  sub.s32      %r131, %r20, %r41
  rcp.f32      %r132, %r94
  st.shared    %r78, %r27
  add.f32      %r37, %r51, %r11
  st.global    %r47, %r104
  st.global    %r11, %r99
  ld.global    %r133, %r91
  st.shared    %r85, %r47
  st.global    %r44, %r9
  fma.f32      %r134, %r10, %r116, %r123
  and.b32      %r135, %r130, %r18
  st.shared    %r67, %r49
  st.global    %r23, %r49
  ret
